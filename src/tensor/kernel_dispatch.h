// Private: runtime-dispatched SIMD attribute shared by the tensor kernel
// TUs (kernels.cpp, im2col.cpp), and the GEMM variant test hook. On x86-64
// GCC, FEDVR_KERNEL_CLONES emits an AVX2+FMA (x86-64-v3) clone of the
// annotated function next to the portable one and binds the best at load
// time via IFUNC, so a single binary is portable yet uses the wide units
// where they exist. FMA contraction changes rounding relative to the
// default clone, but the selected clone is fixed per machine, which is all
// the determinism contract (bit-identical runs on one host) requires.
//
// Sanitizer builds must not use target_clones: the IFUNC resolvers it
// emits run during relocation, before the sanitizer runtime initializes,
// and crash at process start. FEDVR_KERNEL_HAS_CLONES marks builds where
// target attributes are usable at all (e.g. for hand-picked AVX-512
// variants next to the cloned ones).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define FEDVR_KERNEL_HAS_CLONES 1
#define FEDVR_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define FEDVR_KERNEL_CLONES
#endif

namespace fedvr::tensor::detail {

// The GEMM kernel variants in kernels.cpp, one per ISA level. gemm runs the
// best one the host supports, fixed for the process. set_kernel_isa is a
// test hook, not an option: it lets tests run every supported variant on
// one host and compare their bits.
enum class KernelIsa { kPortable, kAvx2, kAvx512 };

[[nodiscard]] bool kernel_isa_supported(KernelIsa isa);

// Makes gemm calls that start after it returns use `isa`, which must be
// supported; returns the variant in use before.
KernelIsa set_kernel_isa(KernelIsa isa);

}  // namespace fedvr::tensor::detail
