//! Dense linear-algebra substrate for the TorchSparse reproduction.
//!
//! The TorchSparse paper (MLSys 2022) builds sparse convolution out of dense
//! primitives: matrix multiplication (`mm`, batched as `bmm` on the GPU) and
//! half-precision feature storage. On the authors' testbed these
//! are provided by cuBLAS/cuDNN; here we provide portable, well-tested CPU
//! implementations with identical semantics:
//!
//! - [`Matrix`]: a row-major `f32` matrix with the shape/indexing conventions
//!   of a feature buffer (`rows` = points, `cols` = channels).
//! - [`gemm`]: blocked, multi-threaded single-precision GEMM. The paper's
//!   grouped `bmm` (§4.2) is modeled by the GPU cost model only; the CPU
//!   executor streams every offset through one fused kernel.
//! - [`Half`]: software IEEE-754 binary16 with round-to-nearest-even, used to
//!   reproduce the FP16 quantization study (§4.3.1, Table 3).
//! - [`quant`]: FP16/INT8 feature quantization helpers.
//! - [`microkernel`]: the compute kernels (AVX2 when the CPU has it, else
//!   safe scalar Rust, bitwise identical) plus the [`PackedB`]
//!   panel-major weight layout shared by the packed GEMM entry points.
//! - [`accum`]: error-free accumulation — a fixed-point superaccumulator
//!   whose sums are bitwise identical under any summation order, the
//!   arithmetic foundation of the engine's parallel deterministic scatter.
//! - [`dense`]: a dense volumetric 3D convolution used **only** as a
//!   correctness oracle for the sparse engine's property tests.
//!
//! # Example
//!
//! ```
//! use torchsparse_tensor::{Matrix, gemm};
//!
//! # fn main() -> Result<(), torchsparse_tensor::TensorError> {
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::eye(3);
//! let c = gemm::mm(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `microkernel::x86` submodule opts back in
// (locally, with per-call safety comments) for `std::arch` intrinsics. All
// other modules remain unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod half;
mod matrix;

pub mod accum;
pub mod dense;
pub mod gemm;
pub mod microkernel;
pub mod quant;

pub use accum::ExactAccumulator;
pub use error::TensorError;
pub use half::Half;
pub use matrix::Matrix;
pub use microkernel::{Kernel, PackedB};
