//! The mutation journal: append/update/delete records.
//!
//! [`Journal::record`] hands each record to the operating system in one
//! `write_all` and never syncs it: a record survives a crash of the
//! writing process, not necessarily one of the machine (ROADMAP item 7
//! decides on syncing).
//!
//! A segment file ([`crate::Store::save`]) is a point-in-time snapshot;
//! the journal is the tail: every mutation appended through
//! [`Journal::record`] can be replayed onto a loaded segment with
//! [`crate::Store::apply`], reproducing the live store exactly (mutations
//! are deterministic). Readers can tail the file incrementally —
//! [`Journal::read_from`] starts at a byte offset and returns the offset
//! one past the last *complete* record, tolerating a torn tail record
//! (the shape a crashed writer leaves), so a watcher can poll the file
//! and replay only what is new.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic "SPANJRNL" · version u32
//! then per record:
//!   op u8 ·   1 = append: text_len u32 · utf-8 bytes
//!             2 = update: doc_id u32 · text_len u32 · utf-8 bytes
//!             3 = delete: doc_id u32
//! ```

use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"SPANJRNL";

/// Journal file format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Byte length of the journal header (magic + version) — the offset of
/// the first record.
pub const JOURNAL_HEADER_LEN: u64 = 12;

const OP_APPEND: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;

/// One corpus mutation — the journal's record unit and the argument of
/// [`crate::Store::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Append a new document at the next id.
    Append {
        /// The new document's text.
        text: String,
    },
    /// Replace document `id`'s content.
    Update {
        /// The document to rewrite.
        id: u32,
        /// Its new text.
        text: String,
    },
    /// Tombstone document `id` (its slot becomes an empty document).
    Delete {
        /// The document to delete.
        id: u32,
    },
}

/// An open journal file, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens `path` for appending, creating it (with a fresh header) if
    /// missing or empty. An existing file is read first: its header and
    /// records are validated, and a torn tail record (what a crashed writer
    /// leaves) is cut off, since a record appended after it would be read
    /// as its continuation.
    pub fn append(path: impl AsRef<Path>) -> Result<Journal, StoreError> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if len == 0 {
            file.write_all(JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        } else {
            let (_, end) = Journal::read_from(path, 0)?;
            file.set_len(end)?;
            file.seek(SeekFrom::Start(end))?;
        }
        Ok(Journal { file })
    }

    /// Appends one mutation record.
    pub fn record(&mut self, mutation: &Mutation) -> Result<(), StoreError> {
        // One buffered write per record: a torn record can only be a
        // truncated tail, which `read_from` tolerates.
        let mut buf = Vec::new();
        match mutation {
            Mutation::Append { text } => {
                buf.push(OP_APPEND);
                buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
                buf.extend_from_slice(text.as_bytes());
            }
            Mutation::Update { id, text } => {
                buf.push(OP_UPDATE);
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
                buf.extend_from_slice(text.as_bytes());
            }
            Mutation::Delete { id } => {
                buf.push(OP_DELETE);
                buf.extend_from_slice(&id.to_le_bytes());
            }
        }
        self.file.write_all(&buf)?;
        self.file.flush()?;
        Ok(())
    }

    /// Reads every *complete* record from byte `offset` on (pass
    /// [`JOURNAL_HEADER_LEN`] — or `0`, which validates the header first —
    /// for the beginning). Returns the mutations and the offset one past
    /// the last complete record: hand it back on the next call to tail the
    /// file incrementally. A truncated tail record is not an error (a
    /// writer may be mid-append); corrupt bytes are.
    pub fn read_from(
        path: impl AsRef<Path>,
        offset: u64,
    ) -> Result<(Vec<Mutation>, u64), StoreError> {
        let mut file = File::open(path)?;
        let start = if offset == 0 {
            read_header(&mut file)?;
            JOURNAL_HEADER_LEN
        } else {
            offset
        };
        file.seek(SeekFrom::Start(start))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut mutations = Vec::new();
        let mut pos = 0usize;
        while let Some((mutation, used)) = decode_record(&bytes[pos..])? {
            mutations.push(mutation);
            pos += used;
        }
        Ok((mutations, start + pos as u64))
    }
}

/// Validates the magic + version header at the reader's position.
fn read_header(r: &mut impl Read) -> Result<(), StoreError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| StoreError::Format("journal shorter than the magic header".into()))?;
    if &magic != JOURNAL_MAGIC {
        return Err(StoreError::Format("bad magic (not a journal file)".into()));
    }
    let mut version = [0u8; 4];
    r.read_exact(&mut version)
        .map_err(|_| StoreError::Format("journal version truncated".into()))?;
    let version = u32::from_le_bytes(version);
    if version != JOURNAL_VERSION {
        return Err(StoreError::Format(format!(
            "unsupported journal version {version} (expected {JOURNAL_VERSION})"
        )));
    }
    Ok(())
}

/// Decodes one record from the front of `bytes`: `Ok(None)` when the
/// record is incomplete (torn tail), `Err` when the bytes cannot be a
/// record at all.
fn decode_record(bytes: &[u8]) -> Result<Option<(Mutation, usize)>, StoreError> {
    let Some(&op) = bytes.first() else {
        return Ok(None);
    };
    match op {
        OP_APPEND => {
            let Some((text, used)) = decode_text(&bytes[1..])? else {
                return Ok(None);
            };
            Ok(Some((Mutation::Append { text }, 1 + used)))
        }
        OP_UPDATE => {
            let Some(id) = decode_u32(&bytes[1..]) else {
                return Ok(None);
            };
            let Some((text, used)) = decode_text(&bytes[5..])? else {
                return Ok(None);
            };
            Ok(Some((Mutation::Update { id, text }, 5 + used)))
        }
        OP_DELETE => {
            let Some(id) = decode_u32(&bytes[1..]) else {
                return Ok(None);
            };
            Ok(Some((Mutation::Delete { id }, 5)))
        }
        other => Err(StoreError::Format(format!(
            "unknown journal op byte {other}"
        ))),
    }
}

fn decode_u32(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?))
}

/// Decodes a length-prefixed UTF-8 string; `None` = incomplete.
fn decode_text(bytes: &[u8]) -> Result<Option<(String, usize)>, StoreError> {
    let Some(len) = decode_u32(bytes) else {
        return Ok(None);
    };
    let len = len as usize;
    let Some(raw) = bytes.get(4..4 + len) else {
        return Ok(None);
    };
    let text = String::from_utf8(raw.to_vec())
        .map_err(|_| StoreError::Format("journal record is not valid UTF-8".into()))?;
    Ok(Some((text, 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spanner-journal-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn record_and_replay_round_trips() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let muts = vec![
            Mutation::Append {
                text: "first β-line".into(),
            },
            Mutation::Append { text: "".into() },
            Mutation::Update {
                id: 0,
                text: "rewritten".into(),
            },
            Mutation::Delete { id: 1 },
        ];
        let mut journal = Journal::append(&path).unwrap();
        for m in &muts {
            journal.record(m).unwrap();
        }
        let (read, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(read, muts);
        assert_eq!(end, std::fs::metadata(&path).unwrap().len());
        // Replaying onto an empty store reproduces the mutated corpus.
        let mut store = Store::build(Vec::new()).unwrap();
        for m in &read {
            store.apply(m).unwrap();
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.documents()[0].text(), "rewritten");
        assert!(store.is_deleted(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_tailing_resumes_at_the_returned_offset() {
        let path = tmp("tail");
        std::fs::remove_file(&path).ok();
        let mut journal = Journal::append(&path).unwrap();
        journal
            .record(&Mutation::Append { text: "one".into() })
            .unwrap();
        let (first, offset) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(first.len(), 1);
        // Nothing new yet.
        let (none, same) = Journal::read_from(&path, offset).unwrap();
        assert!(none.is_empty());
        assert_eq!(same, offset);
        // Append more — only the new records are returned.
        journal.record(&Mutation::Delete { id: 0 }).unwrap();
        let (next, end) = Journal::read_from(&path, offset).unwrap();
        assert_eq!(next, vec![Mutation::Delete { id: 0 }]);
        assert!(end > offset);
        // Re-opening for append keeps existing records.
        drop(journal);
        let mut journal = Journal::append(&path).unwrap();
        journal
            .record(&Mutation::Append { text: "two".into() })
            .unwrap();
        let (all, _) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(all.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// Every truncation and every single-byte flip of a journal replays a
    /// prefix or fails with a typed error, and the offset handed back never
    /// leaves the file (ROADMAP item 4(iv)).
    #[test]
    fn read_survives_every_truncation_and_byte_flip() {
        let path = tmp("fuzz");
        std::fs::remove_file(&path).ok();
        let mut journal = Journal::append(&path).unwrap();
        for i in 0..12u32 {
            let text = format!("line {i} é");
            journal.record(&Mutation::Append { text }).unwrap();
            let text = format!("rewritten {i}");
            journal
                .record(&Mutation::Update { id: i / 2, text })
                .unwrap();
            journal.record(&Mutation::Delete { id: i / 3 }).unwrap();
        }
        drop(journal);
        let saved = std::fs::read(&path).unwrap();
        let (all, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!((all.len(), end as usize), (36, saved.len()));

        let check = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            match Journal::read_from(&path, 0) {
                Ok((read, end)) => {
                    assert!(end as usize <= bytes.len(), "{what}: offset past the end");
                    assert!(read.len() <= 36, "{what}");
                }
                Err(StoreError::Format(_) | StoreError::Io(_)) => {}
                Err(other) => panic!("{what}: untyped failure {other}"),
            }
        };
        for cut in 0..saved.len() {
            check(&saved[..cut], &format!("truncation at {cut}"));
        }
        let mut mutated = saved.clone();
        for at in 0..saved.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                mutated[at] = saved[at] ^ mask;
                check(&mutated, &format!("byte {at} ^ {mask:#04x}"));
            }
            mutated[at] = saved[at];
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopening_after_a_torn_tail_keeps_every_complete_record() {
        let path = tmp("reopen-torn");
        std::fs::remove_file(&path).ok();
        let [one, two, three] =
            ["one", "two", "three"].map(|text| Mutation::Append { text: text.into() });
        let mut journal = Journal::append(&path).unwrap();
        journal.record(&one).unwrap();
        journal.record(&two).unwrap();
        drop(journal);
        // A crash in the middle of the second record.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 4).unwrap();
        drop(file);
        let mut journal = Journal::append(&path).unwrap();
        journal.record(&three).unwrap();
        let (read, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(read, [one, three]);
        assert_eq!(end, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_garbage_is_not() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        let mut journal = Journal::append(&path).unwrap();
        journal
            .record(&Mutation::Append {
                text: "whole".into(),
            })
            .unwrap();
        drop(journal);
        // Truncate into the middle of a second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let whole_len = bytes.len();
        bytes.push(super::OP_UPDATE);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (read, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(end as usize, whole_len, "torn tail must not be consumed");
        // An unknown op byte is corruption, not truncation.
        bytes.truncate(whole_len);
        bytes.push(0xff);
        std::fs::write(&path, &bytes).unwrap();
        assert!(Journal::read_from(&path, 0).is_err());
        // A non-journal file is rejected up front.
        std::fs::write(&path, b"SPANSTOR\x01\x00\x00\x00").unwrap();
        assert!(Journal::read_from(&path, 0).is_err());
        assert!(Journal::append(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
