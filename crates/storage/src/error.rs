//! Error type for the storage engine.

use std::fmt;

/// Errors raised by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failure.
    Io(std::io::Error),
    /// A page id outside the allocated range was referenced.
    PageOutOfRange { page: u64, count: u64 },
    /// A page's stored CRC32 does not match its payload: the page was
    /// corrupted at rest or torn during a write.
    ChecksumMismatch { page: u64 },
    /// The store file's header is invalid (bad magic, unsupported version,
    /// mismatched page size, or a length inconsistent with the page count).
    BadHeader { detail: String },
    /// Structural corruption detected while reading, with the page it was
    /// found on when known.
    Corrupt { page: Option<u64>, detail: String },
    /// An earlier `sync` failed, so the durable state of the store is
    /// unknown; the pager refuses further writes until reopened. Continuing
    /// to write after a failed fsync can silently mix durable and
    /// non-durable pages, which is exactly the torn state checksums cannot
    /// repair.
    Poisoned,
}

impl StorageError {
    /// Corruption not attributable to a specific page.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        StorageError::Corrupt { page: None, detail: detail.into() }
    }

    /// Corruption detected on a specific page.
    pub fn corrupt_at(page: u64, detail: impl Into<String>) -> Self {
        StorageError::Corrupt { page: Some(page), detail: detail.into() }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::PageOutOfRange { page, count } => {
                write!(f, "page {page} out of range (allocated {count})")
            }
            StorageError::ChecksumMismatch { page } => {
                write!(f, "checksum mismatch on page {page}")
            }
            StorageError::BadHeader { detail } => write!(f, "invalid store header: {detail}"),
            StorageError::Corrupt { page: Some(p), detail } => {
                write!(f, "corrupt storage on page {p}: {detail}")
            }
            StorageError::Corrupt { page: None, detail } => {
                write!(f, "corrupt storage: {detail}")
            }
            StorageError::Poisoned => {
                write!(f, "store poisoned by an earlier sync failure; reopen to continue")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;
