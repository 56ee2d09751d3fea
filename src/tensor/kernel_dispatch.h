// Private: the GEMM kernel variant hook of kernels.cpp, for the tensor tests.
#pragma once

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
