/**
 * @file
 * Umbrella header: the varsim public API.
 *
 * Typical use:
 * @code
 *   using namespace varsim;
 *   core::SystemConfig sys;                 // the paper's target
 *   workload::WorkloadParams wl;            // OLTP by default
 *   core::RunConfig run{.warmupTxns = 100, .measureTxns = 200};
 *   auto results = core::runMany(sys, wl, run, {.numRuns = 20});
 *   auto report  = core::analyze(results);
 * @endcode
 */

#ifndef VARSIM_CORE_VARSIM_HH
#define VARSIM_CORE_VARSIM_HH

#include "core/analysis.hh"
#include "core/config.hh"
#include "core/experiment.hh"
#include "core/planner.hh"
#include "core/runner.hh"
#include "core/simulation.hh"
#include "stats/anova2.hh"
#include "stats/distributions.hh"
#include "stats/table.hh"
#include "workload/workload.hh"

#endif // VARSIM_CORE_VARSIM_HH
