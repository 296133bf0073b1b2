// Runtime-dispatched dense/sparse kernels: the library's only GEMM,
// GEMM * B^T and CSR SpMM forward, run by the autograd ops (training, and
// serving under ag::NoGradScope), plus the fused epilogues the model
// forwards use (ag::MatMulBiasAct, ag::SpMMBiasAct).
//
// Each function owns the blocking and thread-pool structure and routes
// the inner row-range loops through the per-ISA kernel table selected by
// la::ActiveIsa() (see cpu_features.h). The scalar tier is the reference;
// SIMD tiers keep the same accumulation order and are held to a <= 4-ULP
// elementwise bound by tests/la/dispatch_test.cc and
// tests/core/simd_equivalence_test.cc. With KernelIsa::kScalar forced
// (TURBO_KERNEL_ISA=scalar) training is bit-exact across machines.
#pragma once

#include "la/cpu_features.h"
#include "la/kernel_table.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace turbo::la::dispatch {

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n]. Row-parallel on the shared
/// thread pool above a flop threshold; rows are never split, so results
/// are identical across thread counts.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n]. Row-parallel like MatMul.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Y = S * X. Shapes: [m,k] x [k,n] -> [m,n]. Row-parallel like MatMul.
Matrix Spmm(const SparseMatrix& s, const Matrix& x);

/// Fused Y = act(S * X + addend): SpMM, addend and activation in one
/// pass over Y. `addend` may be null (no addend), [1,n] (row-broadcast
/// bias) or [m,n] (full addend, e.g. the self-transform branch of a
/// SAGE-style layer). The addend is applied after ALL accumulation, so
/// the result is bitwise equal to act(Spmm(s,x) + addend) composed from
/// unfused calls on the same ISA tier.
Matrix SpmmBiasAct(const SparseMatrix& s, const Matrix& x,
                   const Matrix* addend, Act act);

/// Fused C = act(A * B + addend); addend as in SpmmBiasAct. Bitwise
/// equal to act(MatMul(a,b) + addend) on the same tier.
Matrix MatMulBiasAct(const Matrix& a, const Matrix& b, const Matrix* addend,
                     Act act);

/// Elementwise out = act(a), dispatched. kRelu/kIdentity are exact on
/// every tier; kTanh/kSigmoid use the scalar libm path on every tier,
/// so MapAct is bit-identical across tiers (and to la::MapT with the
/// matching la::kernels functor).
Matrix MapAct(const Matrix& a, Act act);

namespace internal {
/// Kernel table for the currently active ISA (scalar fallback if the
/// active tier was not compiled in — unreachable via SetKernelIsa).
const la::internal::KernelTable& ActiveTable();
}  // namespace internal

}  // namespace turbo::la::dispatch

namespace turbo::la {
/// la::MatMul is the dispatched GEMM under its plain name, not a second
/// implementation.
using dispatch::MatMul;
}  // namespace turbo::la
