//! Binary graph images (`.bgr`) — the `BGR` version-1 format of
//! `FORMATS.md` §1.
//!
//! A [`BipartiteCsr`] is written as a 56-byte checksummed header (magic,
//! version, endianness tag, side sizes, edge count) followed by the four
//! CSR sections as fixed-width little-endian arrays, each zero-padded to
//! an 8-byte boundary — so a loader validates the header and then
//! bulk-reads (or maps) each section without parsing. Readers fail
//! closed: bad magic/version/endianness, a checksum mismatch, a short or
//! long file, or any structural violation (non-monotone offsets,
//! out-of-range or unsorted adjacency, inconsistent transpose) is a typed
//! [`BinError`] and never yields a graph. `FORMATS.md` is normative; the
//! tests at the bottom of this module pin the layout byte-for-byte.
//!
//! ```
//! use bigraph::builder::from_edges;
//! use bigraph::binfmt::{read_binary_graph, write_binary_graph};
//!
//! let g = from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
//! let mut image = Vec::new();
//! write_binary_graph(&mut image, &g).unwrap();
//! let loaded = read_binary_graph(&mut image.as_slice()).unwrap();
//! assert_eq!(loaded.graph, g);
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::bytes::Fnv1a;
use crate::csr::BipartiteCsr;
use crate::VertexId;

/// Magic bytes opening every binary graph file.
pub const MAGIC: [u8; 8] = *b"RCPTBGR\0";
/// The single supported format version.
pub const VERSION: u32 = 1;
/// Endianness tag; a byte-swapped writer would produce `0x0403_0201`.
pub const ENDIAN_TAG: u32 = 0x0102_0304;
/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 56;

/// Why a binary graph could not be read or written. Path-level entry
/// points wrap causes in [`BinError::File`] so every user-facing message
/// names the offending file.
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure (includes short reads as `UnexpectedEof`).
    Io(io::Error),
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// A version other than [`VERSION`].
    BadVersion {
        /// The version actually found.
        found: u32,
    },
    /// An endianness tag other than [`ENDIAN_TAG`].
    BadEndianness {
        /// The tag actually found.
        found: u32,
    },
    /// A stored checksum disagrees with the recomputed one.
    Checksum {
        /// Which checksum: `"header"` or `"body"`.
        what: &'static str,
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum recomputed from the bytes read.
        computed: u64,
    },
    /// The file is not exactly header + sections + padding long.
    WrongLength {
        /// Length the header implies.
        expected: u64,
        /// Length actually present.
        found: u64,
    },
    /// A structural CSR invariant fails (checksums passed, content lies).
    Invalid {
        /// Human-readable description of the violated invariant.
        what: String,
    },
    /// A cause annotated with the file it arose in.
    File {
        /// The offending path.
        path: String,
        /// The underlying error.
        error: Box<BinError>,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "i/o error: {e}"),
            BinError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (not a binary graph file)")
            }
            BinError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported binary graph version {found} (expected {VERSION})"
                )
            }
            BinError::BadEndianness { found } => {
                write!(
                    f,
                    "bad endianness tag {found:#010x} (expected {ENDIAN_TAG:#010x})"
                )
            }
            BinError::Checksum {
                what,
                stored,
                computed,
            } => write!(
                f,
                "{what} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinError::WrongLength { expected, found } => write!(
                f,
                "wrong file length: header implies {expected} bytes, found {found}"
            ),
            BinError::Invalid { what } => write!(f, "invalid graph structure: {what}"),
            BinError::File { path, error } => write!(f, "in {path}: {error}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

/// A successfully validated binary graph plus the header checksum that
/// identifies the image (checkpoint pointers bind to it; `FORMATS.md` §3).
#[derive(Debug, Clone)]
pub struct BinaryGraph {
    /// The reconstructed graph.
    pub graph: BipartiteCsr,
    /// The file's header checksum field.
    pub header_checksum: u64,
}

fn padding(len_bytes: u64) -> u64 {
    (8 - len_bytes % 8) % 8
}

/// Total file length the header fields imply (header + padded sections).
fn expected_len(num_u: u64, num_v: u64, num_edges: u64) -> Option<u64> {
    let off_u = num_u.checked_add(1)?.checked_mul(8)?;
    let off_v = num_v.checked_add(1)?.checked_mul(8)?;
    let adj = num_edges.checked_mul(4)?;
    let adj_padded = adj.checked_add(padding(adj))?;
    HEADER_LEN
        .checked_add(off_u)?
        .checked_add(adj_padded)?
        .checked_add(off_v)?
        .checked_add(adj_padded)
}

fn header_checksum_words(num_u: u64, num_v: u64, num_edges: u64, body: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.word(u64::from_le_bytes(MAGIC));
    h.word((u64::from(VERSION) << 32) | u64::from(ENDIAN_TAG));
    h.word(num_u);
    h.word(num_v);
    h.word(num_edges);
    h.word(body);
    h.finish()
}

/// Writes `g` in `BGR` v1 layout; returns the header checksum (the image
/// identity a checkpoint pointer stores).
pub fn write_binary_graph<W: Write>(w: &mut W, g: &BipartiteCsr) -> Result<u64, BinError> {
    let num_u = g.num_u() as u64;
    let num_v = g.num_v() as u64;
    let num_edges = g.num_edges() as u64;

    // Body checksum: every section element in file order, u32s widened.
    let mut body = Fnv1a::new();
    let mut off = 0u64;
    body.word(0);
    for u in 0..g.num_u() {
        off += g.deg_u(u as VertexId) as u64;
        body.word(off);
    }
    for u in 0..g.num_u() {
        for &v in g.neighbors_u(u as VertexId) {
            body.word(u64::from(v));
        }
    }
    let mut off = 0u64;
    body.word(0);
    for v in 0..g.num_v() {
        off += g.deg_v(v as VertexId) as u64;
        body.word(off);
    }
    for v in 0..g.num_v() {
        for &u in g.neighbors_v(v as VertexId) {
            body.word(u64::from(u));
        }
    }
    let body = body.finish();
    let header = header_checksum_words(num_u, num_v, num_edges, body);

    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&ENDIAN_TAG.to_le_bytes())?;
    w.write_all(&num_u.to_le_bytes())?;
    w.write_all(&num_v.to_le_bytes())?;
    w.write_all(&num_edges.to_le_bytes())?;
    w.write_all(&body.to_le_bytes())?;
    w.write_all(&header.to_le_bytes())?;

    let pad = vec![0u8; padding(num_edges * 4) as usize];
    let mut off = 0u64;
    w.write_all(&off.to_le_bytes())?;
    for u in 0..g.num_u() {
        off += g.deg_u(u as VertexId) as u64;
        w.write_all(&off.to_le_bytes())?;
    }
    for u in 0..g.num_u() {
        for &v in g.neighbors_u(u as VertexId) {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.write_all(&pad)?;
    let mut off = 0u64;
    w.write_all(&off.to_le_bytes())?;
    for v in 0..g.num_v() {
        off += g.deg_v(v as VertexId) as u64;
        w.write_all(&off.to_le_bytes())?;
    }
    for v in 0..g.num_v() {
        for &u in g.neighbors_v(v as VertexId) {
            w.write_all(&u.to_le_bytes())?;
        }
    }
    w.write_all(&pad)?;
    w.flush()?;
    Ok(header)
}

/// Writes `g` to `path`, wrapping failures with the path.
pub fn write_binary_graph_path<P: AsRef<Path>>(path: P, g: &BipartiteCsr) -> Result<u64, BinError> {
    let path = path.as_ref();
    let wrap = |error: BinError| BinError::File {
        path: path.display().to_string(),
        error: Box::new(error),
    };
    let file = File::create(path).map_err(|e| wrap(BinError::Io(e)))?;
    let mut w = BufWriter::new(file);
    write_binary_graph(&mut w, g).map_err(wrap)
}

fn read_u64(r: &mut impl Read) -> Result<u64, BinError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32(r: &mut impl Read) -> Result<u32, BinError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads chunked so a hostile header cannot force a huge allocation
/// before the short read is discovered.
fn read_u64_section(
    r: &mut impl Read,
    count: u64,
    digest: &mut Fnv1a,
) -> Result<Vec<u64>, BinError> {
    let mut out = Vec::new();
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(1 << 16);
        for _ in 0..take {
            let w = read_u64(r)?;
            digest.word(w);
            out.push(w);
        }
        remaining -= take;
    }
    Ok(out)
}

fn read_u32_section(
    r: &mut impl Read,
    count: u64,
    digest: &mut Fnv1a,
) -> Result<Vec<u32>, BinError> {
    let mut out = Vec::new();
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(1 << 16);
        for _ in 0..take {
            let w = read_u32(r)?;
            digest.word(u64::from(w));
            out.push(w);
        }
        remaining -= take;
    }
    let mut pad = vec![0u8; padding(count * 4) as usize];
    r.read_exact(&mut pad)?;
    Ok(out)
}

fn offsets_to_usize(raw: &[u64], num_edges: u64, side: &str) -> Result<Vec<usize>, BinError> {
    if raw.first() != Some(&0) {
        return Err(BinError::Invalid {
            what: format!("{side}_offsets[0] != 0"),
        });
    }
    for w in raw.windows(2) {
        if w[1] < w[0] {
            return Err(BinError::Invalid {
                what: format!("{side}_offsets not monotone non-decreasing"),
            });
        }
    }
    if raw.last() != Some(&num_edges) {
        return Err(BinError::Invalid {
            what: format!(
                "{side}_offsets end at {} but num_edges = {num_edges}",
                raw.last().copied().unwrap_or(0)
            ),
        });
    }
    Ok(raw.iter().map(|&w| w as usize).collect())
}

fn check_rows(
    offsets: &[usize],
    adj: &[VertexId],
    other_side: u64,
    side: &str,
) -> Result<(), BinError> {
    for row in 0..offsets.len() - 1 {
        let list = &adj[offsets[row]..offsets[row + 1]];
        for pair in list.windows(2) {
            if pair[1] <= pair[0] {
                return Err(BinError::Invalid {
                    what: format!("{side}_adj row {row} not strictly ascending"),
                });
            }
        }
        if let Some(&last) = list.last() {
            if u64::from(last) >= other_side {
                return Err(BinError::Invalid {
                    what: format!("{side}_adj row {row} has neighbor {last} out of range"),
                });
            }
        }
    }
    Ok(())
}

/// Reads and fully validates a `BGR` v1 image from `r` (which must end
/// exactly where the format says it does).
pub fn read_binary_graph<R: Read>(r: &mut R) -> Result<BinaryGraph, BinError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(BinError::BadMagic { found: magic });
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(BinError::BadVersion { found: version });
    }
    let endian = read_u32(r)?;
    if endian != ENDIAN_TAG {
        return Err(BinError::BadEndianness { found: endian });
    }
    let num_u = read_u64(r)?;
    let num_v = read_u64(r)?;
    let num_edges = read_u64(r)?;
    let stored_body = read_u64(r)?;
    let stored_header = read_u64(r)?;
    let computed_header = header_checksum_words(num_u, num_v, num_edges, stored_body);
    if stored_header != computed_header {
        return Err(BinError::Checksum {
            what: "header",
            stored: stored_header,
            computed: computed_header,
        });
    }
    let Some(expected_total) = expected_len(num_u, num_v, num_edges) else {
        return Err(BinError::Invalid {
            what: "section sizes overflow".to_string(),
        });
    };
    // Ids must fit the id type and counts must fit memory indices.
    if num_v > u64::from(VertexId::MAX) || num_u > u64::from(VertexId::MAX) {
        return Err(BinError::Invalid {
            what: format!("side sizes {num_u}x{num_v} exceed the u32 id space"),
        });
    }

    let mut body = Fnv1a::new();
    let u_offsets_raw = read_u64_section(r, num_u + 1, &mut body)?;
    let u_adj = read_u32_section(r, num_edges, &mut body)?;
    let v_offsets_raw = read_u64_section(r, num_v + 1, &mut body)?;
    let v_adj = read_u32_section(r, num_edges, &mut body)?;
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(BinError::WrongLength {
            expected: expected_total,
            found: expected_total + 1,
        });
    }
    let computed_body = body.finish();
    if stored_body != computed_body {
        return Err(BinError::Checksum {
            what: "body",
            stored: stored_body,
            computed: computed_body,
        });
    }

    let u_offsets = offsets_to_usize(&u_offsets_raw, num_edges, "u")?;
    let v_offsets = offsets_to_usize(&v_offsets_raw, num_edges, "v")?;
    check_rows(&u_offsets, &u_adj, num_v, "u")?;
    check_rows(&v_offsets, &v_adj, num_u, "v")?;

    // (S3, S4) must be the exact transpose of (S1, S2): checksums prove
    // the bytes are what the writer wrote, this proves the writer wrote a
    // coherent graph.
    let mut cursor: Vec<usize> = v_offsets[..v_offsets.len() - 1].to_vec();
    for u in 0..u_offsets.len() - 1 {
        for &v in &u_adj[u_offsets[u]..u_offsets[u + 1]] {
            let c = &mut cursor[v as usize];
            if *c >= v_offsets[v as usize + 1] || v_adj[*c] != u as VertexId {
                return Err(BinError::Invalid {
                    what: format!("v-side is not the transpose of u-side at edge ({u}, {v})"),
                });
            }
            *c += 1;
        }
    }
    if cursor
        .iter()
        .zip(&v_offsets[1..])
        .any(|(&c, &end)| c != end)
    {
        return Err(BinError::Invalid {
            what: "v-side has edges absent from u-side".to_string(),
        });
    }

    Ok(BinaryGraph {
        graph: BipartiteCsr::from_parts(u_offsets, u_adj, v_offsets, v_adj),
        header_checksum: stored_header,
    })
}

/// Reads `path`, wrapping failures with the path. Checks the file length
/// against the header before streaming the sections.
pub fn read_binary_graph_path<P: AsRef<Path>>(path: P) -> Result<BinaryGraph, BinError> {
    let path = path.as_ref();
    let wrap = |error: BinError| BinError::File {
        path: path.display().to_string(),
        error: Box::new(error),
    };
    let inner = || -> Result<BinaryGraph, BinError> {
        let file = File::open(path)?;
        let actual_len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        r.read_exact(&mut header)?;
        // The header buffer is fixed-length, so these reads are always in
        // range; the fail-closed helpers keep even an impossible short
        // read an error rather than a panic.
        let short = |pos: usize| BinError::Invalid {
            what: format!("truncated header read at offset {pos}"),
        };
        let num_u = crate::bytes::le_u64_at(&header, 16).ok_or_else(|| short(16))?;
        let num_v = crate::bytes::le_u64_at(&header, 24).ok_or_else(|| short(24))?;
        let num_edges = crate::bytes::le_u64_at(&header, 32).ok_or_else(|| short(32))?;
        if header[..8] == MAGIC {
            if let Some(expected) = expected_len(num_u, num_v, num_edges) {
                if expected != actual_len {
                    return Err(BinError::WrongLength {
                        expected,
                        found: actual_len,
                    });
                }
            }
        }
        read_binary_graph(&mut header.as_slice().chain(r))
    };
    inner().map_err(wrap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::gen;

    fn image(g: &BipartiteCsr) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary_graph(&mut buf, g).unwrap();
        buf
    }

    #[test]
    fn round_trips_generated_graphs() {
        for g in [
            gen::zipf(60, 40, 250, 0.5, 0.9, 11),
            gen::planted_bicliques(30, 30, 3, 4, 4, 90, 13),
            BipartiteCsr::empty(5, 7),
            from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]).unwrap(),
        ] {
            let buf = image(&g);
            let loaded = read_binary_graph(&mut buf.as_slice()).unwrap();
            assert_eq!(loaded.graph, g);
            // binary -> binary is the identity.
            assert_eq!(image(&loaded.graph), buf);
        }
    }

    #[test]
    fn layout_matches_formats_md() {
        // One butterfly + pendant: 3 U-vertices, 2 V-vertices, 5 edges
        // (odd, so the u32 sections carry 4 padding bytes each).
        let g = from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]).unwrap();
        let buf = image(&g);
        assert_eq!(&buf[..8], b"RCPTBGR\0");
        assert_eq!(&buf[8..12], &1u32.to_le_bytes());
        assert_eq!(&buf[12..16], &0x0102_0304u32.to_le_bytes());
        assert_eq!(&buf[16..24], &3u64.to_le_bytes());
        assert_eq!(&buf[24..32], &2u64.to_le_bytes());
        assert_eq!(&buf[32..40], &5u64.to_le_bytes());
        let expected = HEADER_LEN + 8 * 4 + (4 * 5 + 4) + 8 * 3 + (4 * 5 + 4);
        assert_eq!(buf.len() as u64, expected);
        // S1 u_offsets = [0, 2, 4, 5].
        assert_eq!(&buf[56..64], &0u64.to_le_bytes());
        assert_eq!(&buf[64..72], &2u64.to_le_bytes());
        assert_eq!(&buf[72..80], &4u64.to_le_bytes());
        assert_eq!(&buf[80..88], &5u64.to_le_bytes());
        // S2 u_adj = [0, 1, 0, 1, 0] then 4 zero bytes of padding.
        assert_eq!(&buf[88..92], &0u32.to_le_bytes());
        assert_eq!(&buf[92..96], &1u32.to_le_bytes());
        assert_eq!(&buf[104..108], &0u32.to_le_bytes());
        assert_eq!(&buf[108..112], &[0u8; 4]);
    }

    #[test]
    fn rejects_bad_magic() {
        let g = from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let mut buf = image(&g);
        buf[0] = b'X';
        assert!(matches!(
            read_binary_graph(&mut buf.as_slice()),
            Err(BinError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_bad_version_and_endianness() {
        let g = from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let mut buf = image(&g);
        buf[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_binary_graph(&mut buf.as_slice()),
            Err(BinError::BadVersion { found: 9 })
        ));
        let mut buf = image(&g);
        buf[12..16].copy_from_slice(&0x0403_0201u32.to_le_bytes());
        assert!(matches!(
            read_binary_graph(&mut buf.as_slice()),
            Err(BinError::BadEndianness { .. })
        ));
    }

    #[test]
    fn rejects_header_tamper_and_body_bitflip() {
        let g = gen::zipf(20, 20, 80, 0.5, 0.9, 17);
        let mut buf = image(&g);
        // Grow num_edges without fixing the checksum: header checksum trips.
        buf[32] ^= 1;
        assert!(matches!(
            read_binary_graph(&mut buf.as_slice()),
            Err(BinError::Checksum { what: "header", .. })
        ));
        // Flip one adjacency byte: body checksum trips.
        let mut buf = image(&g);
        let mid = buf.len() - 12;
        buf[mid] ^= 0x40;
        assert!(matches!(
            read_binary_graph(&mut buf.as_slice()),
            Err(BinError::Checksum { what: "body", .. })
        ));
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let g = gen::zipf(20, 20, 80, 0.5, 0.9, 19);
        let buf = image(&g);
        let truncated = &buf[..buf.len() - 5];
        assert!(matches!(
            read_binary_graph(&mut &truncated[..]),
            Err(BinError::Io(_))
        ));
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(
            read_binary_graph(&mut extended.as_slice()),
            Err(BinError::WrongLength { .. })
        ));
    }

    #[test]
    fn rejects_checksum_valid_but_incoherent_sections() {
        // Handcraft a file whose checksums are self-consistent but whose
        // v-side is not the u-side's transpose: structural validation must
        // still refuse it. Graph claims edges (0,0) u-side but (1,?) v-side.
        let (num_u, num_v, num_edges) = (1u64, 1u64, 1u64);
        let u_offsets = [0u64, 1];
        let u_adj = [0u32];
        let v_offsets = [0u64, 0]; // v0 has no edges: inconsistent.
        let v_adj = [0u32];
        let mut body = Fnv1a::new();
        for w in u_offsets {
            body.word(w);
        }
        for a in u_adj {
            body.word(u64::from(a));
        }
        for w in v_offsets {
            body.word(w);
        }
        for a in v_adj {
            body.word(u64::from(a));
        }
        let body = body.finish();
        let header = header_checksum_words(num_u, num_v, num_edges, body);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        for w in [num_u, num_v, num_edges, body, header] {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        for w in u_offsets {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        for a in u_adj {
            buf.extend_from_slice(&a.to_le_bytes());
        }
        buf.extend_from_slice(&[0u8; 4]);
        for w in v_offsets {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        for a in v_adj {
            buf.extend_from_slice(&a.to_le_bytes());
        }
        buf.extend_from_slice(&[0u8; 4]);
        let err = read_binary_graph(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, BinError::Invalid { .. }),
            "wanted Invalid, got {err}"
        );
    }

    #[test]
    fn path_errors_carry_the_path() {
        let err = read_binary_graph_path("/no/such/graph.bgr").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("/no/such/graph.bgr"), "{msg}");

        let dir = std::env::temp_dir().join("binfmt_path_err");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.bgr");
        std::fs::write(&path, b"RCPTBGR\0 way too short").unwrap();
        let msg = read_binary_graph_path(&path).unwrap_err().to_string();
        assert!(msg.contains("short.bgr"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_length_detected_from_path_metadata() {
        let g = from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let dir = std::env::temp_dir().join("binfmt_len");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bgr");
        write_binary_graph_path(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_binary_graph_path(&path).unwrap_err();
        assert!(err.to_string().contains("wrong file length"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_checksum_is_returned_and_stable() {
        let g = gen::zipf(30, 20, 100, 0.5, 0.9, 23);
        let mut buf = Vec::new();
        let ck = write_binary_graph(&mut buf, &g).unwrap();
        assert_eq!(ck, u64::from_le_bytes(buf[48..56].try_into().unwrap()));
        let loaded = read_binary_graph(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.header_checksum, ck);
    }
}
