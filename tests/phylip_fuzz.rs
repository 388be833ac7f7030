//! Seeded fuzz sweep of the PHYLIP reader over mutated documents.
//!
//! PHYLIP files arrive from users and from `mpcgs serve` job specs, so the
//! reader must treat every byte as untrusted. Each case starts from a valid
//! document (strict 10-column names, relaxed names, wrapped sequences,
//! multi-byte names) and applies a few random edits: inserted or replaced
//! characters (ASCII, nucleotide letters, multi-byte), deleted spans,
//! duplicated or dropped lines, and header counts swapped for extreme
//! values. The contract is `Ok` or a pointed `Err` — a non-empty message
//! whose line number, when it names one, exists in the input — and never a
//! panic. A failing case shrinks to the fewest edits that still fail.

#[path = "harness/mod.rs"]
mod harness;

use harness::{CaseDriver, Shrinkable};
use mcmc::rng::Mt19937;
use phylo::io::phylip::parse_phylip;
use phylo::PhyloError;
use rand::RngCore;

const DOCUMENTS: [&str; 5] = [
    " 3 12\nseq_one   ACGTACGTACGT\nseq_two   ACGTACGAACGT\nseq_three ACGTTCGTACGA\n",
    " 2 8\nsample0001ACGTACGT\nsample0002ACGTACGA\n",
    " 2 12\ns1  ACGTAC\nGTACGT\ns2  ACGTAC\nGAACGT\n",
    " 2 4\n€€€€€€€€€€ACGT\nb         ACGA\n",
    " 4 6\nα ACGTAC\nβ ACGTAA\nγ ACTTAC\nδ TCGTAC\n",
];

/// Characters the edits insert: nucleotides, separators, digits and
/// multi-byte characters of two, three and four bytes.
const ALPHABET: [char; 16] =
    ['A', 'C', 'G', 'T', '-', 'N', 'x', ' ', '\t', '\n', '0', '9', 'é', '€', '𝔸', '\u{0}'];

/// Header counts that must not be trusted to size anything.
const COUNTS: [&str; 6] = ["0", "1", "4294967296", "18446744073709551615", "-3", "99999999999"];

#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert { at: usize, ch: usize },
    Replace { at: usize, ch: usize },
    Delete { at: usize, len: usize },
    DuplicateLine { line: usize },
    DropLine { line: usize },
    HeaderCount { field: usize, count: usize },
}

#[derive(Debug, Clone)]
struct Case {
    document: usize,
    edits: Vec<Edit>,
}

impl Shrinkable for Case {
    /// Drop one edit at a time.
    fn shrink_candidates(&self) -> Vec<Self> {
        (0..self.edits.len())
            .map(|skip| {
                let mut edits = self.edits.clone();
                edits.remove(skip);
                Case { document: self.document, edits }
            })
            .collect()
    }
}

fn generate(rng: &mut Mt19937) -> Case {
    let mut draw = |n: usize| rng.next_u32() as usize % n;
    let document = draw(DOCUMENTS.len());
    let n_edits = 1 + draw(4);
    let edits = (0..n_edits)
        .map(|_| {
            let (a, b) = (draw(1 << 16), draw(1 << 16));
            match draw(6) {
                0 => Edit::Insert { at: a, ch: b % ALPHABET.len() },
                1 => Edit::Replace { at: a, ch: b % ALPHABET.len() },
                2 => Edit::Delete { at: a, len: 1 + b % 12 },
                3 => Edit::DuplicateLine { line: a },
                4 => Edit::DropLine { line: a },
                _ => Edit::HeaderCount { field: a % 2, count: b % COUNTS.len() },
            }
        })
        .collect();
    Case { document, edits }
}

/// Apply the edits in order. Positions are taken modulo the current text's
/// character or line count, so every edit applies to whatever text is left.
fn mutate(case: &Case) -> String {
    let mut chars: Vec<char> = DOCUMENTS[case.document].chars().collect();
    for edit in &case.edits {
        match *edit {
            Edit::Insert { at, ch } => chars.insert(at % (chars.len() + 1), ALPHABET[ch]),
            Edit::Replace { at, ch } if !chars.is_empty() => {
                let at = at % chars.len();
                chars[at] = ALPHABET[ch];
            }
            Edit::Delete { at, len } if !chars.is_empty() => {
                let at = at % chars.len();
                chars.drain(at..(at + len).min(chars.len()));
            }
            Edit::DuplicateLine { line } | Edit::DropLine { line } => {
                let text: String = chars.iter().collect();
                let mut lines: Vec<&str> = text.split('\n').collect();
                let line = line % lines.len();
                if matches!(edit, Edit::DuplicateLine { .. }) {
                    lines.insert(line, lines[line]);
                } else {
                    lines.remove(line);
                }
                chars = lines.join("\n").chars().collect();
            }
            Edit::HeaderCount { field, count } => {
                let text: String = chars.iter().collect();
                let (header, body) = text.split_once('\n').unwrap_or((&text, ""));
                let mut fields: Vec<&str> = header.split_whitespace().collect();
                if field < fields.len() {
                    fields[field] = COUNTS[count];
                }
                chars = format!(" {}\n{body}", fields.join(" ")).chars().collect();
            }
            Edit::Replace { .. } | Edit::Delete { .. } => {}
        }
    }
    chars.into_iter().collect()
}

fn check(case: &Case) -> Result<(), String> {
    let text = mutate(case);
    let parsed = std::panic::catch_unwind(|| parse_phylip(&text))
        .map_err(|_| format!("reader panicked on {text:?}"))?;
    let error = match parsed {
        Ok(_) => return Ok(()),
        Err(error) => error,
    };
    if error.to_string().trim().is_empty() {
        return Err(format!("empty error message for {text:?}"));
    }
    if let PhyloError::Parse { line, .. } = error {
        if line > text.lines().count() {
            return Err(format!("error names line {line}, past the end of {text:?}"));
        }
    }
    Ok(())
}

#[test]
fn mutated_phylip_documents_parse_or_fail_with_pointed_errors() {
    // The unmutated documents are valid.
    for (document, text) in DOCUMENTS.iter().enumerate() {
        parse_phylip(text).unwrap();
        check(&Case { document, edits: Vec::new() }).unwrap();
    }
    CaseDriver::new("phylip-mutations", 2017).cases(2_000).run(generate, check);
}

#[test]
fn the_sweep_reaches_the_cases_that_used_to_panic() {
    // A strict name of multi-byte characters split inside a character,
    // and a header whose counts overflow a capacity request.
    let split =
        Case { document: 1, edits: (5..9).map(|at| Edit::Replace { at, ch: 13 }).collect() };
    assert!(mutate(&split).contains("\n€€€€le0001ACGTACGT\n"));
    check(&split).unwrap();
    let overflow = Case {
        document: 0,
        edits: vec![
            Edit::HeaderCount { field: 0, count: 3 },
            Edit::HeaderCount { field: 1, count: 3 },
        ],
    };
    assert!(mutate(&overflow).starts_with(" 18446744073709551615 18446744073709551615\n"));
    check(&overflow).unwrap();
}
