/**
 * @file
 * Error-reporting facilities, following the gem5 conventions:
 * panic() for internal invariant violations (simulator bugs) and
 * fatal() for user-caused configuration errors.
 */

#ifndef TOKENCMP_SIM_LOGGING_HH
#define TOKENCMP_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tokencmp {

/** Abort with a formatted message; use for "can never happen" bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; use for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Parse `text` as a whole decimal count of at least `min`. Anything
 * else — a sign, trailing characters, an empty string, overflow — is
 * fatal, naming `what` (the flag or environment variable it came
 * from).
 */
unsigned parseCount(const char *text, const char *what, unsigned min);

} // namespace tokencmp

#endif // TOKENCMP_SIM_LOGGING_HH
