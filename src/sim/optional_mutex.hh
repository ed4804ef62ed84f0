/**
 * @file
 * A mutex that is free until someone asks for it.
 *
 * Model state that is single-threaded under the serial kernel but
 * shared between shard domains under the sharded kernel (the token
 * auditor's stripes) guards itself with an OptionalMutex: serial runs
 * never touch the mutex; sharded setup calls enable(true) once before
 * threads exist.
 */

#ifndef TOKENCMP_SIM_OPTIONAL_MUTEX_HH
#define TOKENCMP_SIM_OPTIONAL_MUTEX_HH

#include <mutex>

namespace tokencmp {

class OptionalMutex
{
  public:
    /** Engage (or disengage) locking; call only while single-threaded. */
    void enable(bool on) { _on = on; }

    bool enabled() const { return _on; }

    /** An owned lock when enabled, an empty (free) one otherwise. */
    std::unique_lock<std::mutex>
    lock() const
    {
        return _on ? std::unique_lock<std::mutex>(_mu)
                   : std::unique_lock<std::mutex>();
    }

  private:
    bool _on = false;
    mutable std::mutex _mu;
};

} // namespace tokencmp

#endif // TOKENCMP_SIM_OPTIONAL_MUTEX_HH
