// Blocked distance kernels for the streaming nearest-link engine.
//
// The scalar cell (core::l2_cell) walks one (row, column) pair at a
// time; at 1000 x 100K x 60 dims that is ~2e10 scalar FLOPs and the
// engine is memory- and issue-bound. These kernels keep the exact same
// arithmetic per output — sequential float accumulation of
// (a[j]-b[j])^2 over dims, then one float sqrt — but evaluate a *block*
// of columns per call with the columns laid out dim-major, so the inner
// loop runs lane-parallel over columns and gcc/clang auto-vectorize it
// (each lane's accumulation order is untouched; vectorizing across
// independent outputs never reassociates a sum). Combined with the
// project-wide `-ffp-contract=off` (no FMA contraction anywhere), every
// lane is bit-identical to the scalar l2_cell / squared-distance loops.
//
// CI proves the vectorization claim: tools/vec_proof.sh compiles this
// translation unit with -fopt-info-vec / -Rpass=loop-vectorize and
// fails the build if the block loops stop vectorizing.
#pragma once

#include <cstddef>

namespace patchdb::core {

/// Columns per block. A compile-time trip count lets the vectorizer
/// fully unroll; 64 floats = two AVX-512 / four AVX2 vectors per dim
/// step, and the engine's whole-block rejection (every lane past the
/// heap front's bar) is one decision per block, outside the SIMD loop.
inline constexpr std::size_t kLinkGroupCols = 64;

/// out[c] = sum_j (a[j] - block[j*kLinkGroupCols + c])^2 for every lane
/// c of one dim-major block, with float accumulation sequential over j
/// — per lane bit-identical to the scalar loop in core::l2_cell. `out`
/// holds kLinkGroupCols floats and must not alias the inputs.
void sq_cell_block(const float* a, const float* block, std::size_t dims,
                   float* out) noexcept;

/// sq_cell_block followed by a float sqrt per lane: out[c] is
/// bit-identical to l2_cell(a, column c, dims). (IEEE-754 sqrt is
/// correctly rounded, so a vector sqrt lane equals the scalar sqrtf.)
void l2_cell_block(const float* a, const float* block, std::size_t dims,
                   float* out) noexcept;

/// Transpose `width` <= kLinkGroupCols row-major feature rows (`cols`,
/// each `dims` floats, column c at cols + c*dims) into one dim-major
/// block: dst[j*kLinkGroupCols + c] = cols[c*dims + j]. Lanes
/// [width, kLinkGroupCols) are zero-filled, so a partial block runs the
/// same fixed-width kernel without reading garbage.
void pack_cols_dim_major(const float* cols, std::size_t width,
                         std::size_t dims, float* dst) noexcept;

}  // namespace patchdb::core
