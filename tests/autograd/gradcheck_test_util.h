// Gradient checks under every kernel tier: the autograd products run on
// the runtime-dispatched kernels, so each tier's forward and backward
// must agree with finite differences on its own.
#pragma once

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "la/cpu_features.h"
#include "tests/la/ulp_test_util.h"

namespace turbo::ag::testing {

/// CheckGradients with default tolerances once per supported ISA, under
/// ScopedKernelIsa. Tiers the host cannot run are skipped.
inline void ExpectGradsOk(const std::vector<Tensor>& params,
                          const std::function<Tensor()>& loss) {
  for (la::KernelIsa isa : la::testing::SupportedIsas()) {
    la::ScopedKernelIsa forced(isa);
    const GradCheckResult res = CheckGradients(params, loss);
    EXPECT_TRUE(res.ok) << la::IsaName(isa) << ": " << res.detail
                        << " (max_abs_err=" << res.max_abs_err << ")";
  }
}

}  // namespace turbo::ag::testing
