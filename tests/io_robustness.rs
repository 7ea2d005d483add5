//! Robustness of the on-disk formats: arbitrary bytes must never panic
//! the binary graph decoder, mutations of valid encodings must either
//! decode to a valid CSR or fail cleanly, and checkpoint spill files —
//! truncated, garbage, or bit-flipped on disk — must surface a typed
//! `XbfsError`, never a panic or a silent bad resume.

use proptest::prelude::*;
use std::sync::OnceLock;
use xbfs::archsim::{ArchSpec, FaultPlan, Link};
use xbfs::core::checkpoint::{capture_at, LevelCheckpoint};
use xbfs::core::recovery::Rung;
use xbfs::core::CrossParams;
use xbfs::engine::{FixedMN, XbfsError};
use xbfs::graph::io::DecodeError;
use xbfs::graph::{gen, io, Csr, RmatConfig, RmatGenerator, VertexId};

/// One real spilled checkpoint (JSON text) plus the graph it belongs to,
/// captured once and shared across the corruption proptests.
fn spilled() -> &'static (Csr, String) {
    static SPILL: OnceLock<(Csr, String)> = OnceLock::new();
    SPILL.get_or_init(|| {
        let g = xbfs::graph::rmat::rmat_csr(8, 8);
        let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
        let params = CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        };
        let ck = capture_at(
            &g,
            src,
            &ArchSpec::cpu_sandy_bridge(),
            &ArchSpec::gpu_k20x(),
            &Link::pcie3(),
            &params,
            &FaultPlan::none(),
            Rung::CpuOnly,
            2,
        )
        .expect("clean capture");
        let json = ck.to_json();
        (g, json)
    })
}

/// A corrupted spill is only allowed two outcomes: a typed checkpoint
/// error, or a parse that the trust gate (`validate_for`) then judges —
/// and a state that passes both must still be internally consistent.
fn assert_sound_spill(g: &Csr, text: &str) {
    match LevelCheckpoint::from_json(text) {
        Err(XbfsError::Checkpoint { .. }) => {}
        Err(other) => panic!("corrupt spill surfaced a non-checkpoint error: {other}"),
        Ok(ck) => {
            // Parsing succeeded; resuming is only legal if the full trust
            // gate passes, and then the restored state must audit clean.
            if ck.validate_for(g).is_ok() {
                assert!(ck.state.check_against(g).is_ok());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        // Either outcome is fine; panicking is not.
        let _ = io::decode_csr(&bytes[..]);
    }

    #[test]
    fn decode_of_mutated_encoding_is_sound(
        flip_at in 0usize..256,
        xor in 1u8..=255,
    ) {
        let g = gen::grid(4, 5);
        let mut bytes = io::encode_csr(&g).to_vec();
        let i = flip_at % bytes.len();
        bytes[i] ^= xor;
        // If it still decodes, the decoder's full validation
        // guarantees a canonical, symmetric CSR — a mutation can at
        // most produce a *different* valid graph, never a corrupt one.
        if let Ok(decoded) = io::decode_csr(&bytes[..]) {
            prop_assert!(decoded.is_canonical());
            prop_assert!(decoded.is_symmetric());
        }
    }

    #[test]
    fn truncations_fail_cleanly(cut in 0usize..100) {
        let g = gen::complete(6);
        let bytes = io::encode_csr(&g);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let r = io::decode_csr(&bytes[..cut]);
        prop_assert!(r.is_err(), "truncated decode at {} succeeded", cut);
    }

    #[test]
    fn checkpoint_garbage_spills_fail_with_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let (g, _) = spilled();
        let text = String::from_utf8_lossy(&bytes);
        assert_sound_spill(g, &text);
    }

    #[test]
    fn checkpoint_truncated_spills_fail_with_a_typed_error(frac in 0.0f64..1.0) {
        let (g, json) = spilled();
        let cut = ((json.len() as f64 * frac) as usize).min(json.len() - 1);
        // Cut on a char boundary (the spill is ASCII JSON, but stay safe).
        let cut = (0..=cut).rev().find(|&i| json.is_char_boundary(i)).unwrap();
        assert_sound_spill(g, &json[..cut]);
    }

    #[test]
    fn checkpoint_bitflipped_spills_never_resume_silently(
        at in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        let (g, json) = spilled();
        let mut bytes = json.clone().into_bytes();
        let i = at % bytes.len();
        bytes[i] ^= xor;
        let text = String::from_utf8_lossy(&bytes);
        assert_sound_spill(g, &text);
    }
}

/// The unflipped spill itself parses and passes the trust gate — the
/// corruption tests above are exercising real rejections, not a fixture
/// that was broken to begin with.
#[test]
fn the_pristine_spill_fixture_is_trusted() {
    let (g, json) = spilled();
    let ck = LevelCheckpoint::from_json(json).expect("pristine spill parses");
    assert!(ck.validate_for(g).is_ok());
    assert_eq!(ck.level(), 2);
}

// ---------------------------------------------------------------------------
// Load-check equivalence: `Csr::from_parts` and `io::decode_csr` must accept
// and reject exactly what the original checks did, with the same
// `DecodeError` variant, on valid graphs and on structured mutations.
// ---------------------------------------------------------------------------

/// The `Csr::from_parts` predicate written the direct way, kept as the
/// oracle: offset shape, a zero first offset, monotone offsets, column
/// range, strictly sorted lists without self-loops, and symmetry by one
/// binary search per directed entry.
fn oracle_accepts(n: VertexId, offsets: &[u64], columns: &[VertexId]) -> bool {
    if offsets.len() != n as usize + 1
        || offsets[0] != 0
        || offsets.windows(2).any(|w| w[0] > w[1])
        || offsets.last() != Some(&(columns.len() as u64))
        || columns.iter().any(|&c| c >= n)
    {
        return false;
    }
    let row =
        |v: VertexId| &columns[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
    let canonical = (0..n).all(|u| row(u).windows(2).all(|w| w[0] < w[1]))
        && (0..n).all(|u| row(u).binary_search(&u).is_err());
    let symmetric = (0..n).all(|u| row(u).iter().all(|&v| row(v).binary_search(&u).is_ok()));
    canonical && symmetric
}

const ORACLE_MAGIC: u32 = 0x5842_4653;
const ORACLE_VERSION: u32 = 1;

/// The original element-by-element decoder, kept as the oracle for which
/// `DecodeError` each byte string produces.
fn oracle_decode(bytes: &[u8]) -> Result<(VertexId, Vec<u64>, Vec<VertexId>), DecodeError> {
    fn read(bytes: &[u8], pos: &mut usize, width: usize) -> Result<u64, DecodeError> {
        let chunk = bytes
            .get(*pos..*pos + width)
            .ok_or(DecodeError::Truncated)?;
        *pos += width;
        Ok(chunk
            .iter()
            .rev()
            .fold(0, |acc, &b| acc << 8 | u64::from(b)))
    }
    if bytes.len() < 24 {
        return Err(DecodeError::Truncated);
    }
    let mut pos = 0;
    if read(bytes, &mut pos, 4)? != u64::from(ORACLE_MAGIC) {
        return Err(DecodeError::BadMagic);
    }
    let version = read(bytes, &mut pos, 4)?;
    if version != u64::from(ORACLE_VERSION) {
        return Err(DecodeError::BadVersion(version as u32));
    }
    let n = read(bytes, &mut pos, 4)?;
    let _reserved = read(bytes, &mut pos, 4)?;
    let m = read(bytes, &mut pos, 8)?;
    let body = (n + 1)
        .checked_mul(8)
        .and_then(|o| m.checked_mul(4).map(|c| (o, c)))
        .and_then(|(o, c)| o.checked_add(c))
        .ok_or(DecodeError::Truncated)?;
    if ((bytes.len() - pos) as u64) < body {
        return Err(DecodeError::Truncated);
    }
    let mut offsets = Vec::new();
    for _ in 0..=n {
        offsets.push(read(bytes, &mut pos, 8)?);
    }
    let mut columns = Vec::new();
    for _ in 0..m {
        columns.push(read(bytes, &mut pos, 4)? as VertexId);
    }
    let n = n as VertexId;
    if !oracle_accepts(n, &offsets, &columns) {
        return Err(DecodeError::Invalid);
    }
    Ok((n, offsets, columns))
}

/// Frame raw arrays in the binary layout, whether or not they form a CSR.
fn encode_parts(n: VertexId, offsets: &[u64], columns: &[VertexId]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&ORACLE_MAGIC.to_le_bytes());
    buf.extend_from_slice(&ORACLE_VERSION.to_le_bytes());
    buf.extend_from_slice(&n.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&(columns.len() as u64).to_le_bytes());
    offsets
        .iter()
        .for_each(|o| buf.extend_from_slice(&o.to_le_bytes()));
    columns
        .iter()
        .for_each(|c| buf.extend_from_slice(&c.to_le_bytes()));
    buf
}

/// `decode_csr` and the oracle decoder agree: the same graph, or the same
/// error variant.
fn decode_matches_oracle(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (io::decode_csr(bytes), oracle_decode(bytes)) {
        (Ok(g), Ok((n, offsets, columns))) => {
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert_eq!(g.row_offsets(), &offsets[..]);
            prop_assert_eq!(g.column_indices(), &columns[..]);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "decode_csr gave {:?}, the oracle {:?}",
                got.map(|_| "a graph"),
                want.map(|_| "a graph")
            )))
        }
    }
    Ok(())
}

/// `from_parts` accepts exactly what the oracle accepts, and the framed
/// arrays decode exactly as the oracle decoder says.
fn parts_match_oracle(
    n: VertexId,
    offsets: Vec<u64>,
    columns: Vec<VertexId>,
) -> Result<(), TestCaseError> {
    let want = oracle_accepts(n, &offsets, &columns);
    let bytes = encode_parts(n, &offsets, &columns);
    let got = Csr::from_parts(n, offsets.clone(), columns.clone());
    prop_assert_eq!(
        got.is_some(),
        want,
        "from_parts disagrees with the oracle on n={} offsets={:?} columns={:?}",
        n,
        offsets,
        columns
    );
    decode_matches_oracle(&bytes)
}

fn parts(g: &Csr) -> (VertexId, Vec<u64>, Vec<VertexId>) {
    (
        g.num_vertices(),
        g.row_offsets().to_vec(),
        g.column_indices().to_vec(),
    )
}

/// A small graph from every generator family, R-MAT included.
fn family_graph(family: u8, a: u32, seed: u64) -> Csr {
    let s = a % 24 + 1;
    let t = a / 24 % 6 + 1;
    match family % 12 {
        0 => gen::path(s),
        1 => gen::star(s),
        2 => gen::complete(s % 10 + 1),
        3 => gen::grid(s % 6 + 1, t),
        4 => gen::binary_tree(s),
        5 => gen::uniform_random(s + 1, u64::from(a % 64), seed),
        6 => gen::two_cliques(s % 6 + 1),
        7 => gen::barabasi_albert(s + 2, a % 3 + 1, seed),
        8 => gen::watts_strogatz(s + 3, 4, 0.3, seed),
        9 => gen::road_like(s % 5 + 2, t + 1, a % 7, seed),
        10 => gen::cycle(s + 2),
        _ => RmatGenerator::new(RmatConfig::new(a % 4 + 3, 8).with_seed(seed)).csr(),
    }
}

/// One structured mutation of a CSR's arrays. Kind 0 leaves them valid.
fn mutate(
    (n, mut offsets, mut columns): (VertexId, Vec<u64>, Vec<VertexId>),
    kind: u8,
    i: usize,
    j: usize,
    x: u32,
) -> (VertexId, Vec<u64>, Vec<VertexId>) {
    let len = columns.len();
    match kind % 6 {
        // Rewrite one column to any of 0..=n+1 (both out-of-range ids).
        1 if len > 0 => columns[i % len] = x % (n + 2),
        // Swap two columns.
        2 if len > 0 => columns.swap(i % len, j % len),
        // Nudge one interior offset by ±1.
        3 if n >= 2 => {
            let k = 1 + i % (n as usize - 1);
            offsets[k] = if x & 1 == 0 {
                offsets[k] + 1
            } else {
                offsets[k].saturating_sub(1)
            };
        }
        // Flip a low bit of a column or an offset.
        4 => {
            let bit = 1 << (x % 4);
            if j & 1 == 0 && len > 0 {
                columns[i % len] ^= bit;
            } else {
                let k = i % offsets.len();
                offsets[k] ^= u64::from(bit);
            }
        }
        // Drop one entry, keeping the offsets consistent: still canonical,
        // but one direction of an edge goes missing.
        5 if len > 0 => {
            let at = i % len;
            columns.remove(at);
            offsets
                .iter_mut()
                .filter(|o| **o > at as u64)
                .for_each(|o| *o -= 1);
        }
        _ => {}
    }
    (n, offsets, columns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn load_checks_match_the_oracle_on_mutated_generator_graphs(
        family in 0u8..12,
        a in any::<u32>(),
        seed in any::<u64>(),
        kind in 0u8..6,
        i in any::<usize>(),
        j in any::<usize>(),
        x in any::<u32>(),
    ) {
        let g = family_graph(family, a, seed);
        if kind == 0 {
            prop_assert!(g.is_canonical() && g.is_symmetric());
            prop_assert!(oracle_accepts(g.num_vertices(), g.row_offsets(), g.column_indices()));
        }
        let (n, offsets, columns) = mutate(parts(&g), kind, i, j, x);
        parts_match_oracle(n, offsets, columns)?;
    }

    #[test]
    fn decode_matches_the_oracle_on_byte_mutations(
        family in 0u8..12,
        a in any::<u32>(),
        seed in any::<u64>(),
        at in any::<usize>(),
        xor in 1u8..=255,
        extra in 0usize..9,
    ) {
        let mut bytes = io::encode_csr(&family_graph(family, a, seed));
        let k = at % bytes.len();
        bytes[k] ^= xor;
        bytes.resize(bytes.len() + extra, 0xA5);
        decode_matches_oracle(&bytes)?;
    }

    #[test]
    fn decode_matches_the_oracle_on_framed_garbage(
        n in 0u32..8,
        m in 0u64..24,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = encode_parts(n, &[], &[]);
        bytes[16..24].copy_from_slice(&m.to_le_bytes());
        bytes.extend_from_slice(&body);
        decode_matches_oracle(&bytes)?;
        for cut in [0, 1, 23, 24, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            decode_matches_oracle(&bytes[..cut.min(bytes.len())])?;
        }
    }
}

/// Every single-column rewrite (to each id in `0..=n+1`), swap and drop of
/// a few small graphs, checked exhaustively rather than sampled.
#[test]
fn every_single_edit_of_small_graphs_matches_the_oracle() {
    let graphs = [
        gen::complete(4),
        gen::grid(2, 3),
        gen::star(5),
        gen::path(5),
        gen::two_cliques(3),
        gen::cycle(5),
    ];
    for g in &graphs {
        let (n, offsets, columns) = parts(g);
        let len = columns.len();
        for i in 0..len {
            for x in 0..n + 2 {
                let mut c = columns.clone();
                c[i] = x;
                parts_match_oracle(n, offsets.clone(), c).unwrap();
            }
            for j in i + 1..len {
                let mut c = columns.clone();
                c.swap(i, j);
                parts_match_oracle(n, offsets.clone(), c).unwrap();
            }
            let dropped = mutate(parts(g), 5, i, 0, 0);
            parts_match_oracle(dropped.0, dropped.1, dropped.2).unwrap();
        }
        for k in 0..offsets.len() {
            for delta in [-1i64, 1] {
                let mut o = offsets.clone();
                o[k] = o[k].saturating_add_signed(delta);
                parts_match_oracle(n, o, columns.clone()).unwrap();
            }
        }
    }
}

/// Hand-built layouts aimed at the one-pass symmetry check's counters.
#[test]
fn named_asymmetric_and_noncanonical_layouts_are_rejected() {
    let cases: [(&str, VertexId, Vec<u64>, Vec<VertexId>); 6] = [
        // 0→1→2→0: every degree is 1, so degree counts alone balance.
        ("directed 3-cycle", 3, vec![0, 1, 2, 3], vec![1, 2, 0]),
        // Edge 0–1 with its mirror stored twice in row 1.
        ("duplicated mirror", 2, vec![0, 1, 3], vec![1, 0, 0]),
        // Symmetric edge 0–1 plus a loop on 0.
        ("self-loop", 2, vec![0, 2, 3], vec![0, 1, 0]),
        // Row 1 lists 0, row 0 is empty.
        ("lower entry without its mirror", 2, vec![0, 0, 1], vec![0]),
        // Edges 0–2 and 1–2, except row 1 forgot 2: the last slot of the
        // column array is never claimed.
        (
            "last slot left unmatched",
            3,
            vec![0, 1, 1, 3],
            vec![2, 0, 1],
        ),
        // Rows 0 and 1 both list 2, but row 2 holds only 0: row 1's
        // entry finds row 2 already fully matched.
        (
            "upper entry past a full row",
            3,
            vec![0, 1, 2, 3],
            vec![2, 2, 0],
        ),
    ];
    for (name, n, offsets, columns) in cases {
        assert!(
            !oracle_accepts(n, &offsets, &columns),
            "{name}: oracle accepts"
        );
        assert!(
            Csr::from_parts(n, offsets.clone(), columns.clone()).is_none(),
            "{name}: from_parts accepts"
        );
        assert_eq!(
            io::decode_csr(encode_parts(n, &offsets, &columns)),
            Err(DecodeError::Invalid),
            "{name}"
        );
    }
    // The symmetric triangle passes both.
    let (n, offsets, columns) = (3, vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]);
    assert!(oracle_accepts(n, &offsets, &columns));
    assert!(Csr::from_parts(n, offsets, columns).is_some());
}

/// A non-zero first offset leaves entries outside every list that would
/// still count in `num_edges()`; the format rejects it, in range or not.
#[test]
fn entries_before_the_first_row_are_rejected() {
    for columns in [vec![0], vec![1]] {
        parts_match_oracle(1, vec![1, 1], columns.clone()).unwrap();
        assert!(Csr::from_parts(1, vec![1, 1], columns.clone()).is_none());
        assert_eq!(
            io::decode_csr(encode_parts(1, &[1, 1], &columns)),
            Err(DecodeError::Invalid)
        );
    }
    // A zero-vertex graph whose lone offset is nonzero is rejected too.
    assert!(Csr::from_parts(0, vec![2], vec![0, 0]).is_none());
    parts_match_oracle(0, vec![2], vec![0, 0]).unwrap();
}

// ---------------------------------------------------------------------------
// Decode contract: each `DecodeError` variant for the same bytes.
// ---------------------------------------------------------------------------

#[test]
fn decode_round_trips_every_family() {
    for family in 0..12 {
        let g = family_graph(family, 37, 11);
        assert_eq!(io::decode_csr(io::encode_csr(&g)).as_ref(), Ok(&g));
    }
}

#[test]
fn a_body_one_byte_short_is_truncated() {
    for family in 0..12 {
        let bytes = io::encode_csr(&family_graph(family, 37, 11));
        let short = &bytes[..bytes.len() - 1];
        assert_eq!(io::decode_csr(short), Err(DecodeError::Truncated));
        assert_eq!(oracle_decode(short).err(), Some(DecodeError::Truncated));
    }
    // Shorter than the header.
    assert_eq!(io::decode_csr(&[0u8; 23][..]), Err(DecodeError::Truncated));
}

#[test]
fn an_overflowing_header_is_truncated() {
    // The column bytes overflow, and then the offset-plus-column sum.
    for (n, m) in [
        (0, u64::MAX),
        (u32::MAX, u64::MAX / 4),
        (u32::MAX, u64::MAX / 8),
    ] {
        let mut bytes = encode_parts(n, &[], &[]);
        bytes[16..24].copy_from_slice(&m.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            io::decode_csr(&bytes[..]),
            Err(DecodeError::Truncated),
            "n={n} m={m}"
        );
        assert_eq!(oracle_decode(&bytes).err(), Some(DecodeError::Truncated));
    }
}

#[test]
fn trailing_bytes_after_the_body_are_ignored() {
    let g = gen::grid(4, 5);
    let mut bytes = io::encode_csr(&g);
    bytes.extend_from_slice(b"trailing junk");
    assert_eq!(io::decode_csr(&bytes[..]), Ok(g));
}

#[test]
fn header_errors_keep_their_variants() {
    let bytes = io::encode_csr(&gen::path(4));
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 1;
    assert_eq!(io::decode_csr(&bad_magic[..]), Err(DecodeError::BadMagic));
    let mut bad_version = bytes.clone();
    bad_version[4..8].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        io::decode_csr(&bad_version[..]),
        Err(DecodeError::BadVersion(7))
    );
    let mut invalid = bytes;
    let last = invalid.len() - 1;
    invalid[last] ^= 0x80; // a column id far out of range
    assert_eq!(io::decode_csr(&invalid[..]), Err(DecodeError::Invalid));
}
