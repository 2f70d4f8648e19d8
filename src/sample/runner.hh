/**
 * @file
 * Old spelling of the run entry points, kept only for perfbench/.
 *
 * core::measure() is the one measure phase and honours
 * RunConfig::sample itself, so these names are plain aliases of the
 * core:: runners. perfbench/ is owned by the benchmark and calls
 * sample::runOnce and sample::runFromCheckpoint; nothing else should.
 */

#ifndef VARSIM_SAMPLE_RUNNER_HH
#define VARSIM_SAMPLE_RUNNER_HH

#include "core/runner.hh"

namespace varsim
{
namespace sample
{

using core::runOnce;
using core::runFromCheckpoint;

} // namespace sample
} // namespace varsim

#endif // VARSIM_SAMPLE_RUNNER_HH
