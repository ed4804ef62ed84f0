/**
 * @file
 * Resumable sweep executor over a ParamGrid.
 *
 * Execution is cell-at-a-time through Experiment (one seed per
 * cell — the grid's seed axis is the resume granularity). Progress is
 * journaled to a JSONL file, one line per completed cell keyed by the
 * cell's stable hash and guarded by the grid fingerprint:
 *
 *   {"type": "header", "grid": ..., "fingerprint": ..., "cells": N}
 *   {"type": "cell", "hash": ..., "label": ..., "result": {...}}
 *
 * Restarting with the same journal skips completed cells; a journal
 * recorded for an edited grid (fingerprint mismatch) is a hard error
 * — resuming into different semantics would silently mix executions.
 * A truncated final line (the process was killed mid-append) is
 * tolerated and re-run.
 *
 * Fan-out is either in-process (a worker-thread pool over pending
 * cells) or multi-process: the driver re-executes its own binary with
 * `--cell <hash>` per cell, so one crashed cell costs that cell, not
 * the night run. Child processes can be pinned round-robin to core
 * groups so sharded cells don't fight over the same cores.
 *
 * mergedReport() folds the journal into one deterministic report —
 * cells in grid enumeration order plus per-axis marginal tables — so
 * an interrupted-and-resumed sweep and an uninterrupted one produce
 * bit-identical reports (tests/test_sweep.cc pins this).
 */

#ifndef TOKENCMP_SWEEP_SWEEP_DRIVER_HH
#define TOKENCMP_SWEEP_SWEEP_DRIVER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sweep/param_grid.hh"

namespace tokencmp {

/** Knobs for one SweepDriver run. */
struct SweepOptions
{
    /** JSONL progress journal (required). Created on first run;
     *  loaded (and fingerprint-checked) when it exists. */
    std::string journalPath;

    /** In-process worker threads over pending cells (>= 1). Ignored
     *  when `processes > 0`. */
    unsigned threads = 1;

    /** > 0: multi-process fan-out with this many concurrent child
     *  processes (`selfExec --grid <gridPath> --cell <hash>`). */
    unsigned processes = 0;

    /** Path of the sweep binary to self-exec (argv[0] of tools/sweep;
     *  required when processes > 0). */
    std::string selfExec;

    /** Grid file path handed to child processes (required when
     *  processes > 0). */
    std::string gridPath;

    /** Pin each child process to a round-robin core group
     *  (hwThreads / processes cores each), one sharded System per
     *  group. Linux only; silently unavailable elsewhere. */
    bool pin = false;

    /** Testing / CI hook: stop (cleanly, resumably) after this many
     *  newly completed cells. 0 = run to completion. */
    unsigned stopAfter = 0;

    /** Print one progress line per cell to stdout. */
    bool verbose = true;
};

class SweepDriver
{
  public:
    /** Binds to `grid` and loads the journal (fatal on a fingerprint
     *  or build-digest mismatch). `grid` must outlive the driver. */
    SweepDriver(const ParamGrid &grid, SweepOptions opts);

    /** 16 hex chars of stableHash64 over this executable's bytes
     *  (/proc/self/exe), written into the journal header: a journal
     *  resumes only under the build that began it. Kept out of the
     *  grid fingerprint and the merged report. */
    static const std::string &buildDigest();

    struct Summary
    {
        unsigned total = 0;    //!< cells in the grid
        unsigned resumed = 0;  //!< skipped: already in the journal
        unsigned ran = 0;      //!< newly completed this run
        unsigned failed = 0;   //!< crashed / non-zero child cells
        bool stopped = false;  //!< stopAfter tripped (resumable)
        std::vector<std::string> failures;  //!< one line per failure

        bool complete() const
        {
            return !stopped && failed == 0 && resumed + ran == total;
        }
    };

    /** Execute every pending cell (in-process or multi-process per
     *  the options), journaling as cells finish. */
    Summary run();

    /** Run one cell in this process and return its result JSON (an
     *  ExperimentResult::toJson object labeled with the cell label).
     *  This is the child-process entry point — static so `--cell`
     *  mode needs no journal — and deterministic for a given cell. */
    static std::string cellResultJson(const ParamGrid &grid,
                                      const SweepCell &cell);

    /** The merged sweep report over everything in the journal:
     *  deterministic (grid order, sorted marginals), independent of
     *  completion order, process count and resume history. */
    std::string mergedReport() const;

    /** Cells completed so far (journal contents). */
    unsigned cellsDone() const { return unsigned(_done.size()); }

  private:
    void loadJournal();
    void appendJournal(const std::string &line);
    Summary runInProcess(const std::vector<const SweepCell *> &pending);
    Summary runMultiProcess(
        const std::vector<const SweepCell *> &pending);

    const ParamGrid &_grid;
    SweepOptions _opts;
    bool _journalStarted = false;  //!< header already on disk
    /** cell hash -> raw result JSON text (byte-exact journal copy,
     *  so merged reports are bit-stable across resumes). */
    std::map<std::string, std::string> _done;
};

} // namespace tokencmp

#endif // TOKENCMP_SWEEP_SWEEP_DRIVER_HH
