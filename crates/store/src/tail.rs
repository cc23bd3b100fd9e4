//! The active append log (the store's unsealed tail segment).
//!
//! Appends land here first, one fixed-width checksummed record per word,
//! so a crash can tear at most the final record. Layout, little-endian:
//!
//! ```text
//! offset  size      field
//! 0       8         magic b"NAPLOG01"
//! 8       4         word_bits (u32)
//! 12      4         reserved (0)
//! 16      …         records: [limbs · 8 bytes word][8 bytes FNV-1a of the word bytes]
//! ```
//!
//! On open the log is scanned record by record; the first short or
//! checksum-failing record marks the torn tail, which is truncated away —
//! every fully-written word before it survives. An intact record whose
//! word sets a bit past the word width is no torn write but a corrupt log:
//! the open fails with [`StoreError::Corrupt`]. Sealing moves the tail's
//! words into a sorted sealed segment and resets the log to its header.

use crate::checksum::fnv1a_limbs;
use crate::error::StoreError;
use crate::faults::Faults;
use crate::segment::padding_clear;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

pub(crate) const TAIL_MAGIC: &[u8; 8] = b"NAPLOG01";
pub(crate) const TAIL_HEADER_LEN: u64 = 16;

/// The open tail log: a buffered append handle plus the live word buffer
/// recovered from (and mirrored to) disk.
#[derive(Debug)]
pub(crate) struct TailLog {
    path: PathBuf,
    /// `Some` for the log's whole life; taken only in `drop`, where a
    /// simulated crash must discard the buffer instead of flushing it.
    writer: Option<BufWriter<std::fs::File>>,
    limbs: usize,
    faults: Faults,
}

impl TailLog {
    /// Opens (creating or recovering) the tail log at `path`, returning the
    /// log plus every intact word recovered from disk as a flat limb
    /// buffer. Torn trailing records are truncated away.
    pub(crate) fn open(
        path: PathBuf,
        word_bits: usize,
        limbs: usize,
        faults: Faults,
    ) -> Result<(Self, Vec<u64>), StoreError> {
        let record_len = 8 * (limbs + 1);
        let mut recovered: Vec<u64> = Vec::new();
        let valid_len = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut header = Vec::with_capacity(TAIL_HEADER_LEN as usize);
                header.extend_from_slice(TAIL_MAGIC);
                header.extend_from_slice(&(word_bits as u32).to_le_bytes());
                header.extend_from_slice(&0u32.to_le_bytes());
                let mut f = std::fs::File::create(&path)?;
                f.write_all(&header)?;
                f.sync_all()?;
                TAIL_HEADER_LEN
            }
            Err(e) => return Err(StoreError::Io(e)),
            Ok(bytes) => {
                if bytes.len() < TAIL_HEADER_LEN as usize || &bytes[0..8] != TAIL_MAGIC {
                    return Err(StoreError::Corrupt {
                        file: path,
                        detail: "bad tail log header".into(),
                    });
                }
                let bits = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
                if bits != word_bits {
                    return Err(StoreError::Mismatch(format!(
                        "tail log stores {bits}-bit words, store is {word_bits}-bit"
                    )));
                }
                let mut offset = TAIL_HEADER_LEN as usize;
                while offset + record_len <= bytes.len() {
                    let record = &bytes[offset..offset + record_len];
                    let limb_vals: Vec<u64> = record[..8 * limbs]
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                        .collect();
                    let recorded =
                        u64::from_le_bytes(record[8 * limbs..].try_into().expect("8 bytes"));
                    if fnv1a_limbs(&limb_vals) != recorded {
                        // Torn record: everything from here on is dropped.
                        break;
                    }
                    if !padding_clear(&limb_vals, word_bits) {
                        // An intact record holding a word no store writes.
                        let n = recovered.len() / limbs.max(1);
                        let detail =
                            format!("record {n} sets a bit past the {word_bits}-bit width");
                        return Err(StoreError::Corrupt { file: path, detail });
                    }
                    recovered.extend_from_slice(&limb_vals);
                    offset += record_len;
                }
                offset as u64
            }
        };
        // Truncate away any torn tail so future appends extend a clean log.
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        drop(file);
        let writer = BufWriter::new(std::fs::OpenOptions::new().append(true).open(&path)?);
        Ok((
            Self {
                path,
                writer: Some(writer),
                limbs,
                faults,
            },
            recovered,
        ))
    }

    fn writer(&mut self) -> &mut BufWriter<std::fs::File> {
        self.writer.as_mut().expect("tail writer live until drop")
    }

    /// Buffers one word record (write-batched; call [`TailLog::commit`]
    /// for durability).
    pub(crate) fn append(&mut self, limbs: &[u64]) -> Result<(), StoreError> {
        debug_assert_eq!(limbs.len(), self.limbs);
        let mut record = Vec::with_capacity(8 * (limbs.len() + 1));
        for &limb in limbs {
            record.extend_from_slice(&limb.to_le_bytes());
        }
        record.extend_from_slice(&fnv1a_limbs(limbs).to_le_bytes());
        let faults = self.faults.clone();
        faults.write_all("tail.append.write", self.writer(), &record)
    }

    /// Flushes buffered records to the OS and fsyncs: the durability point.
    pub(crate) fn commit(&mut self) -> Result<(), StoreError> {
        self.faults.check("tail.commit.flush")?;
        self.writer().flush()?;
        self.faults.check("tail.commit.sync")?;
        self.writer().get_ref().sync_data()?;
        Ok(())
    }

    /// Resets the log to its bare header (after sealing its words into a
    /// segment).
    pub(crate) fn reset(&mut self) -> Result<(), StoreError> {
        self.writer().flush()?;
        self.faults.check("tail.reset.truncate")?;
        let file = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(TAIL_HEADER_LEN)?;
        self.faults.check("tail.reset.sync")?;
        file.sync_all()?;
        drop(file);
        self.writer = Some(BufWriter::new(
            std::fs::OpenOptions::new().append(true).open(&self.path)?,
        ));
        Ok(())
    }

    /// Atomically replaces the log's contents with exactly `words`
    /// (`limbs`-wide, flat): the whole new log is written to a temporary
    /// file, fsynced, and renamed over the old one, so a crash at any
    /// point leaves either the complete old log or the complete new one —
    /// never a truncated in-between. Used by crash-recovery
    /// reconciliation, where the surviving words were already committed
    /// and must not re-enter a loss window.
    pub(crate) fn rewrite(&mut self, word_bits: usize, words: &[u64]) -> Result<(), StoreError> {
        self.writer().flush()?;
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut bytes =
                Vec::with_capacity(TAIL_HEADER_LEN as usize + words.len() / self.limbs.max(1) * 8);
            bytes.extend_from_slice(TAIL_MAGIC);
            bytes.extend_from_slice(&(word_bits as u32).to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            for chunk in words.chunks_exact(self.limbs.max(1)) {
                for &limb in chunk {
                    bytes.extend_from_slice(&limb.to_le_bytes());
                }
                bytes.extend_from_slice(&fnv1a_limbs(chunk).to_le_bytes());
            }
            let mut f = std::fs::File::create(&tmp)?;
            self.faults
                .write_all("tail.rewrite.write", &mut f, &bytes)?;
            self.faults.check("tail.rewrite.sync")?;
            f.sync_all()?;
        }
        self.faults.check("tail.rewrite.rename")?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.writer = Some(BufWriter::new(
            std::fs::OpenOptions::new().append(true).open(&self.path)?,
        ));
        Ok(())
    }

    /// Current size of the log file on disk (flushing first so the figure
    /// reflects buffered appends).
    pub(crate) fn disk_bytes(&mut self) -> Result<u64, StoreError> {
        self.writer().flush()?;
        Ok(std::fs::metadata(&self.path)?.len())
    }
}

impl Drop for TailLog {
    /// Best-effort flush: durability is only guaranteed after an explicit
    /// commit, but there is no reason to discard buffered records on drop —
    /// *unless* a simulated crash has fired, in which case the buffer is
    /// exactly the user-space state a real crash would lose, and flushing
    /// it would grant the test store durability the real one never had.
    fn drop(&mut self) {
        let Some(writer) = self.writer.take() else {
            return;
        };
        if self.faults.crashed() {
            // Unwrap the File out of the BufWriter so its Drop cannot
            // flush the buffered bytes.
            let _ = writer.into_parts();
        } else {
            drop(writer); // BufWriter's Drop flushes, best-effort.
        }
    }
}

/// The tail log's file name within a store directory.
pub(crate) fn tail_path(dir: &Path) -> PathBuf {
    dir.join("tail.log")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("napmon_tail_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_commit_reopen_recovers_all_words() {
        let dir = tmp("recover");
        let path = tail_path(&dir);
        let (mut log, recovered) = TailLog::open(path.clone(), 70, 2, Faults::default()).unwrap();
        assert!(recovered.is_empty());
        log.append(&[1, 2]).unwrap();
        log.append(&[3, 4]).unwrap();
        log.commit().unwrap();
        drop(log);
        let (_, recovered) = TailLog::open(path, 70, 2, Faults::default()).unwrap();
        assert_eq!(recovered, vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_record_is_dropped_and_truncated() {
        let dir = tmp("torn");
        let path = tail_path(&dir);
        let (mut log, _) = TailLog::open(path.clone(), 70, 2, Faults::default()).unwrap();
        log.append(&[1, 2]).unwrap();
        log.append(&[3, 4]).unwrap();
        log.commit().unwrap();
        drop(log);
        // Tear the last record mid-way.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let (_, recovered) = TailLog::open(path.clone(), 70, 2, Faults::default()).unwrap();
        assert_eq!(recovered, vec![1, 2], "only the intact record survives");
        // The file was truncated to the last valid record.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            TAIL_HEADER_LEN + 8 * 3
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn word_width_mismatch_is_typed() {
        let dir = tmp("mismatch");
        let path = tail_path(&dir);
        let (log, _) = TailLog::open(path.clone(), 70, 2, Faults::default()).unwrap();
        drop(log);
        let err = TailLog::open(path, 71, 2, Faults::default()).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmp("reset");
        let path = tail_path(&dir);
        let (mut log, _) = TailLog::open(path.clone(), 64, 1, Faults::default()).unwrap();
        log.append(&[9]).unwrap();
        log.reset().unwrap();
        log.append(&[7]).unwrap();
        log.commit().unwrap();
        drop(log);
        let (_, recovered) = TailLog::open(path, 64, 1, Faults::default()).unwrap();
        assert_eq!(recovered, vec![7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
