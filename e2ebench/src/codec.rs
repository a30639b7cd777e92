//! The `codec` workload: RS(10,4) through the public single-threaded
//! `ErasureCode` entry points — full-stripe encode on the write path,
//! single-chunk repair and 4-erasure decode on the read path — at a block
//! size that fits in L2 (64 KiB, where per-call overhead dominates) and
//! one that streams from L3 (1 MiB).

use std::sync::Arc;
use std::time::Instant;

use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_gf::{mul_slice_xor_with, Gf256, MulTable};

use crate::timed::{Acc, Slot, TimedCode};
use crate::{derive_seed, Bench, CellRun, Layers};

const K: usize = 10;
const M: usize = 4;
/// Bytes checked against the scalar oracle per encode call: one whole
/// parity block up to this size, else a window of it at a seeded offset.
const ORACLE_WINDOW: usize = 4 << 10;

/// What a codec cell calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `encode` of a full stripe.
    Encode,
    /// `repair` of one lost data chunk from `k` survivors.
    Repair,
    /// `decode` of each of four lost data chunks from the ten survivors.
    Decode4,
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Encode => "encode",
            Op::Repair => "repair",
            Op::Decode4 => "decode4",
        }
    }
}

/// One codec cell: an operation at a block size.
#[derive(Debug, Clone, Copy)]
pub struct CodecCell {
    /// Block (chunk) size in bytes.
    pub block: usize,
    /// The operation.
    pub op: Op,
    /// Distinct stripes of input, cycled through.
    pub stripes: usize,
    /// Codec calls per repetition.
    pub calls: usize,
}

impl CodecCell {
    fn size_label(&self) -> String {
        if self.block.is_multiple_of(1 << 20) {
            format!("{}m", self.block >> 20)
        } else {
            format!("{}k", self.block >> 10)
        }
    }
}

/// The codec workload.
pub struct CodecBench {
    seed: u64,
    cells: Vec<CodecCell>,
}

impl CodecBench {
    /// Full size: about 60–120 ms of coding per cell and repetition.
    pub fn new(seed: u64) -> Self {
        let mut cells = Vec::new();
        for (block, stripes, encodes) in [(64 << 10, 16, 320), (1 << 20, 4, 20)] {
            cells.push(CodecCell {
                block,
                op: Op::Encode,
                stripes,
                calls: encodes,
            });
            cells.push(CodecCell {
                block,
                op: Op::Repair,
                stripes,
                calls: encodes * 2,
            });
            cells.push(CodecCell {
                block,
                op: Op::Decode4,
                stripes,
                calls: encodes * 2,
            });
        }
        Self::with_cells(seed, cells)
    }

    /// A workload with explicit cells (the benchmark's tests shrink them).
    pub fn with_cells(seed: u64, cells: Vec<CodecCell>) -> Self {
        CodecBench { seed, cells }
    }
}

/// Set-up of one cell: the code and its seeded input stripes.
struct Inputs {
    code: Arc<dyn ErasureCode>,
    /// `stripes[s][i]`: chunk `i` of stripe `s`; parity is present only
    /// for the read-path cells, which decode from it.
    stripes: Vec<Vec<Vec<u8>>>,
}

fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = derive_seed(state, 0x5EED);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

impl CodecBench {
    fn setup(&self, index: usize, acc: Option<&Arc<Acc>>) -> Result<Inputs, String> {
        let cell = self.cells[index];
        let rs: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(K, M).map_err(|e| e.to_string())?);
        let code: Arc<dyn ErasureCode> = match acc {
            Some(acc) => Arc::new(TimedCode {
                inner: rs.clone(),
                acc: acc.clone(),
            }),
            None => rs.clone(),
        };
        let cell_seed = derive_seed(self.seed, index as u64);
        let mut stripes = Vec::with_capacity(cell.stripes);
        for s in 0..cell.stripes {
            let mut chunks: Vec<Vec<u8>> = (0..K)
                .map(|i| fill(derive_seed(cell_seed, (s * K + i) as u64), cell.block))
                .collect();
            if cell.op != Op::Encode {
                let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
                let full = rs.encode(&refs).map_err(|e| e.to_string())?;
                chunks.extend(full.into_iter().skip(K));
            }
            stripes.push(chunks);
        }
        Ok(Inputs { code, stripes })
    }
}

/// GF(2^8) over x^8 + x^4 + x^3 + x^2 + 1 with its own log/exp tables —
/// the scalar oracle for parity, independent of the program's kernels.
pub struct ScalarGf {
    exp: [u8; 512],
    log: [u8; 256],
}

impl Default for ScalarGf {
    fn default() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().take(255).enumerate() {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11D;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        ScalarGf { exp, log }
    }
}

impl ScalarGf {
    /// `a · b` in the field.
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }
}

/// Checks bytes `range` of parity block `parity` (a chunk index `>= k`)
/// against `Σ_i coeffs[i] · data[i]` evaluated byte by byte, where
/// `coeffs` are the code's `repair_coefficients` of that parity from the
/// data chunks.
pub fn check_parity(
    gf: &ScalarGf,
    coeffs: &[u8],
    data: &[&[u8]],
    parity: &[u8],
    range: std::ops::Range<usize>,
) -> Result<(), String> {
    for pos in range {
        let want = coeffs
            .iter()
            .zip(data)
            .fold(0u8, |acc, (&c, d)| acc ^ gf.mul(c, d[pos]));
        if parity[pos] != want {
            return Err(format!(
                "parity byte {pos} is {:#04x}, the scalar evaluation gives {want:#04x}",
                parity[pos]
            ));
        }
    }
    Ok(())
}

/// Checks one `encode` output: the data chunks come back unchanged and
/// parity `check` agrees with the scalar oracle over `range`.
pub fn check_encoded(
    gf: &ScalarGf,
    coeffs: &[Vec<u8>],
    data: &[&[u8]],
    out: &[Vec<u8>],
    check: usize,
    range: std::ops::Range<usize>,
) -> Result<(), String> {
    if out.len() != data.len() + coeffs.len() {
        return Err(format!("encode returned {} chunks", out.len()));
    }
    for (i, (got, want)) in out.iter().zip(data).enumerate() {
        if got.as_slice() != *want {
            return Err(format!("encode changed data chunk {i}"));
        }
    }
    let k = data.len();
    check_parity(gf, &coeffs[check], data, &out[k + check], range)
        .map_err(|e| format!("parity {}: {e}", k + check))
}

/// One FNV-style fold of a buffer into a running digest, a word at a time.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x100_0000_01B3);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

impl Bench for CodecBench {
    fn name(&self) -> &'static str {
        "codec"
    }

    fn cells(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| format!("{}/{}", c.op.label(), c.size_label()))
            .collect()
    }

    fn ops(&self, cell: usize) -> u64 {
        self.cells[cell].calls as u64
    }

    fn run_cell(&self, index: usize, traced: bool, full_check: bool) -> Result<CellRun, String> {
        let cell = self.cells[index];
        let acc = traced.then(|| Arc::new(Acc::default()));
        let setup = Instant::now();
        let inputs = self.setup(index, acc.as_ref())?;
        let setup_ns = setup.elapsed().as_nanos() as u64;

        let gf = ScalarGf::default();
        let coeffs: Vec<Vec<u8>> = (K..K + M)
            .map(|p| {
                let all: Vec<usize> = (0..K).collect();
                inputs
                    .code
                    .repair_coefficients(p, &all)
                    .map(|c| c.iter().map(|x| x.value()).collect())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let mut mul_xor = (0u64, 0u64);
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let (mut wall_ns, mut cpu_ns) = (0u64, 0u64);
        let call_seed = derive_seed(self.seed, 0xCA11 + index as u64);
        for call in 0..cell.calls {
            let stripe = &inputs.stripes[call % cell.stripes];
            let draw = derive_seed(call_seed, call as u64);
            match cell.op {
                Op::Encode => {
                    let data: Vec<&[u8]> = stripe.iter().map(Vec::as_slice).collect();
                    let out = timed(&mut wall_ns, &mut cpu_ns, || inputs.code.encode(&data));
                    let out = out.map_err(|e| e.to_string())?;
                    let (parities, range) = if full_check {
                        (0..M, 0..cell.block)
                    } else {
                        let window = ORACLE_WINDOW.min(cell.block);
                        let start = draw as usize % (cell.block - window + 1);
                        (call % M..call % M + 1, start..start + window)
                    };
                    for p in parities {
                        check_encoded(&gf, &coeffs, &data, &out, p, range.clone())?;
                    }
                    for parity in &out[K..] {
                        digest = fold(digest, parity);
                    }
                    if acc.is_some() && cell.block >= 1 << 20 {
                        mul_xor = time_mul_xor(&data, &coeffs, mul_xor);
                    }
                }
                Op::Repair => {
                    let lost = (draw % K as u64) as usize;
                    // The other data chunks plus the first parity: k sources.
                    let sources: Vec<(usize, &[u8])> = (0..=K)
                        .filter(|&i| i != lost)
                        .map(|i| (i, stripe[i].as_slice()))
                        .collect();
                    let out = timed(&mut wall_ns, &mut cpu_ns, || {
                        inputs.code.repair(lost, &sources)
                    });
                    let out = out.map_err(|e| e.to_string())?;
                    if out != stripe[lost] {
                        return Err(format!("repair of chunk {lost} differs from the original"));
                    }
                    digest = fold(digest, &out);
                }
                Op::Decode4 => {
                    // Each call decodes one of four lost data chunks; a
                    // loss set covers four consecutive calls.
                    let set = derive_seed(call_seed, (call / 4) as u64);
                    let lost = four_of(set);
                    let wanted = lost[call % 4];
                    let available: Vec<(usize, &[u8])> = (0..K + M)
                        .filter(|i| !lost.contains(i))
                        .map(|i| (i, stripe[i].as_slice()))
                        .collect();
                    let out = timed(&mut wall_ns, &mut cpu_ns, || {
                        inputs.code.decode(&available, wanted)
                    });
                    let out = out.map_err(|e| e.to_string())?;
                    if out != stripe[wanted] {
                        return Err(format!(
                            "decode of chunk {wanted} differs from the original"
                        ));
                    }
                    digest = fold(digest, &out);
                }
            }
        }

        let mut layers = Layers::new();
        if let Some(acc) = &acc {
            let size = cell.size_label();
            let (slot, bytes) = match cell.op {
                Op::Encode => (Slot::Encode, (K * cell.block * cell.calls) as f64),
                Op::Repair | Op::Decode4 => (Slot::Decode, (cell.block * cell.calls) as f64),
            };
            let kind = if cell.op == Op::Encode {
                "encode"
            } else {
                "decode"
            };
            layers.insert(format!("codes.{kind}.{size}.bytes"), bytes);
            layers.insert(format!("codes.{kind}.{size}.s"), acc.secs(slot));
            if mul_xor.1 > 0 {
                layers.insert("gf.mul_xor.1m.bytes".into(), mul_xor.0 as f64);
                layers.insert("gf.mul_xor.1m.s".into(), mul_xor.1 as f64 / 1e9);
            }
            layers.insert("wall_s".into(), wall_ns as f64 / 1e9);
            layers.insert(
                "covered_s".into(),
                acc.secs(Slot::Encode) + acc.secs(Slot::Decode),
            );
        }
        Ok(CellRun {
            setup_ns,
            wall_ns,
            cpu_ns,
            digest: format!("calls={} output_fnv={digest:016x}", cell.calls),
            report: String::new(),
            layers,
        })
    }
}

/// Runs one codec call, adding its wall and process CPU nanoseconds.
fn timed<R>(wall_ns: &mut u64, cpu_ns: &mut u64, call: impl FnOnce() -> R) -> R {
    let (cpu0, t) = (crate::sys::cpu_nanos(), Instant::now());
    let out = call();
    *wall_ns += t.elapsed().as_nanos() as u64;
    *cpu_ns += crate::sys::cpu_nanos() - cpu0;
    out
}

/// Four distinct data-chunk indices drawn from a hash.
fn four_of(mut h: u64) -> [usize; 4] {
    let mut pick: Vec<usize> = (0..K).collect();
    let mut out = [0; 4];
    for slot in &mut out {
        h = derive_seed(h, 1);
        *slot = pick.swap_remove((h % pick.len() as u64) as usize);
    }
    out
}

/// Times the encode's kernel work done directly: every data block
/// multiplied into every parity accumulator by `mul_slice_xor_with`.
/// Returns accumulated (source bytes, nanoseconds).
fn time_mul_xor(data: &[&[u8]], coeffs: &[Vec<u8>], (bytes, nanos): (u64, u64)) -> (u64, u64) {
    let len = data[0].len();
    let mut parity = vec![vec![0u8; len]; coeffs.len()];
    let tables: Vec<Vec<MulTable>> = coeffs
        .iter()
        .map(|row| row.iter().map(|&c| MulTable::new(Gf256::new(c))).collect())
        .collect();
    let t = Instant::now();
    for (row, out) in tables.iter().zip(parity.iter_mut()) {
        for (table, src) in row.iter().zip(data) {
            mul_slice_xor_with(table, src, out);
        }
    }
    let spent = t.elapsed().as_nanos() as u64;
    std::hint::black_box(&parity);
    (
        bytes + (len * data.len() * coeffs.len()) as u64,
        nanos + spent,
    )
}
