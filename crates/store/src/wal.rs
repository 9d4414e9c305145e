//! The delta write-ahead log: every incremental install is appended as
//! one CRC-framed record (the delta's full segment image) followed by
//! an fsync barrier, so a kill-9 at any instant loses at most the
//! record being written — and that loss is *detected*, not guessed at.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header (20 B): magic "KBWL" · version u32 · generation u64 · crc u32
//! record:        payload_len u32 · seq u64 · payload_crc u32 · payload
//! ```
//!
//! Replay policy — the two failure shapes are deliberately distinct:
//!
//! * **Torn tail** (file ends inside a record frame): the expected
//!   signature of a crash mid-append. The tail is truncated and replay
//!   succeeds with everything before it — byte-identical to the last
//!   barrier the writer completed.
//! * **Damaged record** (complete frame, CRC mismatch, or a sequence
//!   number that goes backwards): *not* a crash signature — something
//!   rewrote durable bytes. The record and everything after it are
//!   reported for quarantine; the intact prefix is still served.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::error::SegmentRegion;
use crate::segment_io::{crc32, sync_file};
use crate::StoreError;

/// Magic for a WAL file.
pub(crate) const MAGIC_WAL: [u8; 4] = *b"KBWL";
/// Current WAL format version.
pub(crate) const WAL_VERSION: u32 = 1;

/// Size of the WAL file header in bytes.
pub const WAL_HEADER_LEN: u64 = 20;
const FRAME_LEN: usize = 4 + 8 + 4;

fn corrupt(region: SegmentRegion, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { region, detail: detail.into() }
}

/// What one durable append actually cost, split into the write itself
/// and the fsync barrier — the number `kbkit harvest --incremental`
/// prints next to install latency so the price of durability is visible
/// per delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCost {
    /// Bytes appended (frame + payload).
    pub bytes: u64,
    /// Time spent writing and flushing the record, in microseconds.
    pub write_micros: u64,
    /// Time spent in the fsync barrier, in microseconds (0 when fsync
    /// is disabled).
    pub fsync_micros: u64,
}

impl DurabilityCost {
    /// Sums component costs (a multi-file operation reports one total).
    pub fn add(&mut self, other: DurabilityCost) {
        self.bytes += other.bytes;
        self.write_micros += other.write_micros;
        self.fsync_micros += other.fsync_micros;
    }
}

/// An open write-ahead log, positioned at its end for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    generation: u64,
    /// Sequence number of the last record written (or replayed).
    last_seq: u64,
    fsync: bool,
}

/// The outcome of replaying a WAL file: the decoded records plus an
/// honest account of what the tail looked like.
#[derive(Debug)]
pub struct WalReplay {
    /// Generation stamped in the WAL header.
    pub generation: u64,
    /// Decoded `(seq, payload)` records, in file order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// File length up to and including the last intact record — the
    /// length the file is truncated to before re-opening for append.
    pub valid_len: u64,
    /// Bytes of torn tail dropped (crash mid-append; expected, benign).
    pub torn_bytes: u64,
    /// A complete-but-damaged record, if one was hit: the error plus
    /// the number of bytes from it to end-of-file. Unlike a torn tail
    /// this is real corruption — the caller quarantines those bytes.
    pub damage: Option<(StoreError, u64)>,
}

impl Wal {
    /// Creates a fresh WAL at `path` (truncating any existing file) and
    /// makes the header durable.
    pub fn create(
        path: impl AsRef<Path>,
        generation: u64,
        fsync: bool,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC_WAL);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&generation.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)?;
        file.flush()?;
        if fsync {
            sync_file(&file)?;
            crate::segment_io::fsync_dir(path.parent().unwrap_or_else(|| Path::new(".")))?;
        }
        Ok(Self { file, path, generation, last_seq: 0, fsync })
    }

    /// Re-opens an existing WAL for appending after replay: truncates
    /// the file to `replay.valid_len` (dropping any torn or damaged
    /// tail the caller has dealt with) and seeks to the end.
    pub fn reopen(
        path: impl AsRef<Path>,
        replay: &WalReplay,
        fsync: bool,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(replay.valid_len)?;
        if fsync {
            sync_file(&file)?;
        }
        let mut file = file;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0))?;
        let last_seq = replay.records.last().map_or(0, |&(seq, _)| seq);
        Ok(Self { file, path, generation: replay.generation, last_seq, fsync })
    }

    /// The WAL's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Generation stamped in this WAL's header.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sequence number of the most recent record.
    pub(crate) fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Appends one CRC-framed record and (unless disabled) fsyncs.
    /// Returns the measured [`DurabilityCost`]. On success the record
    /// is durable: a crash after `append` returns replays it.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> Result<DurabilityCost, StoreError> {
        debug_assert!(seq > self.last_seq, "WAL sequence numbers must increase");
        let len = crate::segment_io::check_len(payload.len(), SegmentRegion::WalRecord)?;
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let write_start = Instant::now();
        self.file.write_all(&frame)?;
        self.file.flush()?;
        let write_micros = write_start.elapsed().as_micros() as u64;

        let fsync_micros = if self.fsync {
            let fsync_start = Instant::now();
            sync_file(&self.file)?;
            fsync_start.elapsed().as_micros() as u64
        } else {
            0
        };

        self.last_seq = seq;
        let obs = kb_obs::global();
        obs.counter("store.wal.appends").inc();
        obs.counter("store.wal.bytes").add(frame.len() as u64);
        obs.histogram("store.fsync_micros").observe(fsync_micros);
        Ok(DurabilityCost { bytes: frame.len() as u64, write_micros, fsync_micros })
    }

    /// Decodes a WAL file. Never fails on a torn tail (that is the
    /// normal crash signature — it is measured and dropped); fails only
    /// when the *header* is damaged. A damaged interior record stops
    /// replay and is reported in [`WalReplay::damage`].
    pub fn replay(path: impl AsRef<Path>) -> Result<WalReplay, StoreError> {
        let buf = std::fs::read(path.as_ref())?;
        if buf.len() < WAL_HEADER_LEN as usize {
            return Err(corrupt(
                SegmentRegion::WalHeader,
                format!(
                    "WAL is {} bytes, shorter than its {WAL_HEADER_LEN}-byte header",
                    buf.len()
                ),
            ));
        }
        if buf[0..4] != MAGIC_WAL {
            return Err(corrupt(SegmentRegion::WalHeader, "bad WAL magic"));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != WAL_VERSION {
            return Err(corrupt(
                SegmentRegion::WalHeader,
                format!("unsupported WAL version {version}"),
            ));
        }
        let generation = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let header_crc = u32::from_le_bytes(buf[16..20].try_into().unwrap());
        if crc32(&buf[0..16]) != header_crc {
            return Err(corrupt(SegmentRegion::WalHeader, "WAL header checksum mismatch"));
        }

        let mut records = Vec::new();
        let mut pos = WAL_HEADER_LEN as usize;
        let mut valid_len = pos as u64;
        let mut torn_bytes = 0u64;
        let mut damage = None;
        let mut last_seq = 0u64;
        while pos < buf.len() {
            let remaining = buf.len() - pos;
            if remaining < FRAME_LEN {
                torn_bytes = remaining as u64;
                break;
            }
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let seq = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
            let payload_crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().unwrap());
            if remaining < FRAME_LEN + len {
                // The frame promises more bytes than the file holds:
                // the writer died mid-record.
                torn_bytes = remaining as u64;
                break;
            }
            let payload = &buf[pos + FRAME_LEN..pos + FRAME_LEN + len];
            if crc32(payload) != payload_crc {
                damage = Some((
                    corrupt(
                        SegmentRegion::WalRecord,
                        format!("record seq {seq}: payload checksum mismatch"),
                    ),
                    remaining as u64,
                ));
                break;
            }
            if seq <= last_seq {
                damage = Some((
                    corrupt(
                        SegmentRegion::WalRecord,
                        format!("record sequence went backwards ({last_seq} then {seq})"),
                    ),
                    remaining as u64,
                ));
                break;
            }
            last_seq = seq;
            records.push((seq, payload.to_vec()));
            pos += FRAME_LEN + len;
            valid_len = pos as u64;
        }
        Ok(WalReplay { generation, records, valid_len, torn_bytes, damage })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kbwal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_wal("roundtrip.log");
        let mut wal = Wal::create(&path, 7, false).unwrap();
        let cost = wal.append(1, b"first").unwrap();
        assert_eq!(cost.bytes, FRAME_LEN as u64 + 5);
        assert_eq!(cost.fsync_micros, 0, "fsync disabled");
        wal.append(2, b"second record").unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.generation, 7);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0], (1, b"first".to_vec()));
        assert_eq!(replay.records[1], (2, b"second record".to_vec()));
        assert_eq!(replay.torn_bytes, 0);
        assert!(replay.damage.is_none());
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_at_every_byte_boundary_is_truncated_not_fatal() {
        let path = temp_wal("torn.log");
        let mut wal = Wal::create(&path, 1, false).unwrap();
        wal.append(1, b"keep me").unwrap();
        let keep_len = std::fs::metadata(&path).unwrap().len();
        wal.append(2, b"torn away").unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every byte inside the second record's frame.
        for cut in keep_len as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = Wal::replay(&path).unwrap();
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert_eq!(replay.valid_len, keep_len, "cut at {cut}");
            assert_eq!(replay.torn_bytes, (cut as u64) - keep_len, "cut at {cut}");
            assert!(replay.damage.is_none(), "a torn tail is not damage");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_record_is_reported_and_prefix_survives() {
        let path = temp_wal("damaged.log");
        let mut wal = Wal::create(&path, 1, false).unwrap();
        wal.append(1, b"good").unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        wal.append(2, b"about to rot").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF; // flip a payload byte of record 2
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.valid_len, good_len);
        let (err, quarantined) = replay.damage.expect("damage must be reported");
        assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::WalRecord, .. }));
        assert_eq!(quarantined, (n as u64) - good_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_damage_is_fatal() {
        let path = temp_wal("header.log");
        let mut wal = Wal::create(&path, 1, false).unwrap();
        wal.append(1, b"x").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x01; // generation byte — covered by the header CRC
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::replay(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::WalHeader, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_and_continues_the_sequence() {
        let path = temp_wal("reopen.log");
        let mut wal = Wal::create(&path, 3, false).unwrap();
        wal.append(1, b"one").unwrap();
        wal.append(2, b"two").unwrap();
        // Simulate a crash mid-append of record 3.
        let full = std::fs::read(&path).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 3]); // half a frame
        std::fs::write(&path, &torn).unwrap();

        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        let mut wal = Wal::reopen(&path, &replay, false).unwrap();
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), replay.valid_len);
        wal.append(3, b"three").unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2, 3],);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_payload_is_rejected_before_touching_the_file() {
        let path = temp_wal("toolarge.log");
        let mut wal = Wal::create(&path, 1, false).unwrap();
        let err = crate::segment_io::with_len_limit(4, || wal.append(1, b"way past the limit"))
            .unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { region: SegmentRegion::WalRecord, .. }));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            WAL_HEADER_LEN,
            "the failed append must not write a frame"
        );
        // The WAL is still usable afterwards.
        wal.append(1, b"ok").unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_monotonic_sequence_is_damage() {
        let path = temp_wal("seq.log");
        let mut wal = Wal::create(&path, 1, false).unwrap();
        wal.append(5, b"five").unwrap();
        // Hand-craft a second record with a *lower* seq.
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = b"stale";
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.damage.is_some());
        std::fs::remove_file(&path).ok();
    }
}
