/**
 * @file
 * Configuration for the DirectoryCMP baseline (paper Section 2). The
 * cache and memory timing it shares with every family is MachineParams
 * (net/machine.hh).
 */

#ifndef TOKENCMP_DIRECTORY_DIR_CONFIG_HH
#define TOKENCMP_DIRECTORY_DIR_CONFIG_HH

#include "sim/types.hh"

namespace tokencmp {

/** DirectoryCMP parameters. */
struct DirParams
{
    /**
     * Latency of an inter-CMP directory access. The directory state is
     * stored in DRAM (80 ns); the paper also evaluates an unrealistic
     * zero-cycle directory (DirectoryCMP-zero).
     */
    Tick dirLatency = ns(80);
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_CONFIG_HH
