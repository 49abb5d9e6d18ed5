// MockGroup backend of the benchmark.
#include "bench.hpp"
#include "group/mock_group.hpp"

namespace perfbench {

int run_mock(const Config& cfg, Report& rep) {
  const auto gg = group::make_mock();
  if (cfg.trace) return Bench<group::CountingGroup<group::MockGroup>>(
                            cfg, group::CountingGroup<group::MockGroup>(gg), rep)
                     .run();
  return Bench<group::MockGroup>(cfg, gg, rep).run();
}

}  // namespace perfbench
