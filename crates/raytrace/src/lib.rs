//! # bcl-raytrace — the ray-tracing evaluation application
//!
//! The paper's second benchmark (§7.2): "a realistic ray tracer" with a
//! bounding volume hierarchy, evaluated under four HW/SW partitions
//! (Figure 14). Scene construction and BVH building are host-side setup;
//! ray generation, BVH traversal (an explicit-stack FSM), box and
//! triangle intersection (fixed-point Möller–Trumbore), shading, and the
//! bitmap are BCL rules whose domain placement defines the partition.
//!
//! As with the Vorbis application, the native tracer ([`native`]) and
//! the BCL designs share the same fixed-point formulas, so every
//! partition renders a bit-identical image.
//!
//! ```
//! use bcl_raytrace::bvh::build_bvh;
//! use bcl_raytrace::geom::{gen_rays, make_scene};
//! use bcl_raytrace::native::render;
//! use bcl_raytrace::partitions::{run_partition, RtPartition};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scene = make_scene(32, 7);
//! let bvh = build_bvh(&scene);
//! let golden = render(&bvh, &gen_rays(2, 2));
//! let run = run_partition(RtPartition::C, &bvh, 2, 2)?;
//! assert_eq!(run.output, golden);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bcl;
pub mod bvh;
pub mod geom;
pub mod native;
pub mod partitions;
