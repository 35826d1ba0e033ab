//! Shadow memory and memory accounting for `dgrace` detectors.
//!
//! This crate implements the indexing substrate of §IV of the paper:
//!
//! * [`ShadowTable`] — the chained hash table of Fig. 4. Addresses are
//!   hashed by their upper bits (`addr >> log2(m)`, m = 128) to a chunk
//!   entry; each entry holds an indexing array of slot pointers. New
//!   entries start with `m/4` word-aligned slots ("the most common access
//!   pattern is word access") and are expanded to `m` byte slots when the
//!   first unaligned access hits the chunk. It is the store every
//!   detector runs on. [`PagedShadow`] finds the same chunks through a
//!   two-level directory instead of a hash probe and is kept for
//!   store-level measurements only; both are driven through
//!   [`ShadowStore`]. Under a memory budget a store gives up its regions
//!   cold-first ([`ShadowStore::victim_region`]): the lowest region none
//!   of whose cells holds its thread's current epoch goes before any that
//!   does. That is what lets every happens-before detector answer "is
//!   this the first access to this location in my current epoch?"
//!   (§IV.A) from the location's shadow entry, with no per-thread bitmap
//!   to remember what eviction dropped.
//! * [`MemoryModel`] — the memory-accounting model that regenerates the
//!   *Hash / Vector clock / Bitmap* columns of Table 2 (only
//!   segment-drd's segment bitmaps fill the last) and the
//!   vector-clock population counts of Table 3. Sizes are modeled from the
//!   paper's 32-bit object layout so that measured overheads are
//!   comparable across detectors and independent of the host allocator.
//!
//! A **location** in this crate (and throughout `dgrace`) is the *base
//! address of an access* after granularity masking — an access `(addr,
//! size)` touches exactly one location, matching the paper's model where
//! second-epoch neighbors of `L` live at `L-size` and `L+size`.

//! ```
//! use dgrace_shadow::{ShadowStore, ShadowTable};
//! use dgrace_trace::Addr;
//!
//! let mut t: ShadowTable<u32> = ShadowTable::default();
//! t.insert(Addr(0x100), 7);         // word-mode chunk: 32 slots
//! let small = t.index_bytes();
//! t.insert(Addr(0x103), 9);         // byte access → expand to 128 slots
//! assert!(t.index_bytes() > small);
//! assert_eq!(t.get(Addr(0x100)), Some(&7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
mod chunk;
pub mod governor;
mod hash;
mod paged;
mod slab;
pub mod store;
mod table;

pub use accounting::{MemClass, MemoryModel};
pub use chunk::Victims;
pub use governor::{process_gauge, MemComponent, ProcessGauge, Watermarks};
pub use hash::{FastMap, FibBuildHasher, FibHasher};
pub use paged::PagedShadow;
pub use slab::{Slab, SlabId};
pub use store::{ChunkId, HashSelect, ShadowStore, StoreSelect};
pub use table::ShadowTable;
