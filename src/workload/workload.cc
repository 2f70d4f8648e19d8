#include "workload/workload.hh"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <utility>

#include "workload/builders.hh"

namespace varsim
{
namespace workload
{

const char *
kindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Oltp:      return "OLTP";
      case WorkloadKind::Apache:    return "Apache";
      case WorkloadKind::SpecJbb:   return "SPECjbb";
      case WorkloadKind::Slashcode: return "Slashcode";
      case WorkloadKind::EcPerf:    return "ECPerf";
      case WorkloadKind::Barnes:    return "Barnes";
      case WorkloadKind::Ocean:     return "Ocean";
    }
    return "unknown";
}

bool
kindFromName(const std::string &name, WorkloadKind &out)
{
    static const std::pair<const char *, WorkloadKind> kinds[] = {
        {"oltp", WorkloadKind::Oltp},
        {"apache", WorkloadKind::Apache},
        {"specjbb", WorkloadKind::SpecJbb},
        {"jbb", WorkloadKind::SpecJbb},
        {"slashcode", WorkloadKind::Slashcode},
        {"ecperf", WorkloadKind::EcPerf},
        {"barnes", WorkloadKind::Barnes},
        {"ocean", WorkloadKind::Ocean},
    };
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (const auto &kv : kinds) {
        if (lower == kv.first) {
            out = kv.second;
            return true;
        }
    }
    return false;
}

SyntheticProgram &
Workload::addProgram(std::unique_ptr<SyntheticProgram> p)
{
    programs.push_back(std::move(p));
    return *programs.back();
}

void
Workload::checkpoint(sim::CheckpointIo &cp)
{
    for (const auto &p : programs)
        p->checkpoint(cp);
}

std::unique_ptr<Workload>
Workload::build(const WorkloadParams &params, os::Kernel &kernel,
                std::size_t num_cpus, std::size_t block_bytes)
{
    if (!(params.scale > 0.0))
        throw std::invalid_argument(
            "workload scale must be positive, got " +
            std::to_string(params.scale));
    auto wl = std::make_unique<Workload>(kindName(params.kind));
    BuildContext ctx{*wl, kernel, params, num_cpus, block_bytes};
    switch (params.kind) {
      case WorkloadKind::Oltp:      buildOltp(ctx); break;
      case WorkloadKind::Apache:    buildApache(ctx); break;
      case WorkloadKind::SpecJbb:   buildSpecJbb(ctx); break;
      case WorkloadKind::Slashcode: buildSlashcode(ctx); break;
      case WorkloadKind::EcPerf:    buildEcPerf(ctx); break;
      case WorkloadKind::Barnes:    buildBarnes(ctx); break;
      case WorkloadKind::Ocean:     buildOcean(ctx); break;
    }
    return wl;
}

void
createThreads(BuildContext &ctx, std::shared_ptr<TxnGenerator> gen,
              std::size_t n, sim::Addr code_base,
              std::uint32_t code_blocks)
{
    sim::SplitMix64 seeder(ctx.params.seed ^ 0xabcdef12345ULL);
    for (std::size_t i = 0; i < n; ++i) {
        const auto tid =
            static_cast<sim::ThreadId>(ctx.kernel.numThreads());
        auto &prog = ctx.wl.addProgram(
            std::make_unique<SyntheticProgram>(
                gen, static_cast<int>(tid), seeder.next()));
        auto thread = std::make_unique<os::Thread>(tid, &prog);
        thread->fetch.codeBase = code_base;
        thread->fetch.codeBlocks = code_blocks;
        ctx.kernel.addThread(std::move(thread));
    }
}

std::size_t
threadCount(const BuildContext &ctx, std::size_t default_per_cpu)
{
    const std::size_t per_cpu = ctx.params.threadsPerCpu != 0
                                    ? ctx.params.threadsPerCpu
                                    : default_per_cpu;
    return per_cpu * ctx.numCpus;
}

} // namespace workload
} // namespace varsim
