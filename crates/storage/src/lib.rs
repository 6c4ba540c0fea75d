//! # xquec-storage
//!
//! An embedded page-based storage engine — the reproduction's stand-in for
//! the Berkeley DB back-end the paper runs on (§5):
//!
//! * [`page`] — fixed 8 KiB pages with field accessors;
//! * [`pager`] — in-memory and file-backed page stores;
//! * [`buffer`] — a clock-eviction buffer pool;
//! * [`stream`] — a byte string written across consecutive pages and read
//!   back with its page run checked against the store, which is how a
//!   repository image is laid out;
//! * [`wal`] — a journaled atomic-commit protocol (sidecar redo journal +
//!   checksummed commit record + recovery-on-open) making full-store
//!   rewrites crash-atomic.

pub mod buffer;
pub mod checksum;
pub mod error;
pub mod fault;
pub mod page;
pub mod pager;
pub mod stream;
pub mod wal;

pub use buffer::{BufferPool, PoolStats};
pub use error::{Result, StorageError};
pub use fault::{CrashPoint, FaultPager, FaultPlan};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pager::{FilePager, MemPager, Pager, FILE_HEADER, FORMAT_VERSION, FRAME_HEADER, FRAME_SIZE};
pub use stream::{read_stream, write_stream};
pub use wal::{CommitRecord, Journal};
