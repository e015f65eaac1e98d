//! The original single-token rules: D1 (wall clock), D2 (hash-ordered
//! collections), D3 (panics), D4 (ambient state).

use crate::lexer::Token;
use crate::rules::{Rule, RuleSet};

/// Raw findings over one token stream: `(index, rule, token, message)`.
pub fn find(t: &[Token], rules: RuleSet) -> Vec<(usize, Rule, String, String)> {
    let mut raw: Vec<(usize, Rule, String, String)> = Vec::new();
    let tok = |i: usize| t.get(i).map(|x| x.text.as_str()).unwrap_or("");
    for (i, token) in t.iter().enumerate() {
        let s = token.text.as_str();
        if rules.d1 {
            match s {
                "SystemTime" | "UNIX_EPOCH" => raw.push((
                    i,
                    Rule::D1,
                    s.into(),
                    format!("wall-clock `{s}` — use the virtual clock (`sim_core::clock`)"),
                )),
                "Instant" => raw.push((
                    i,
                    Rule::D1,
                    s.into(),
                    "wall-clock `std::time::Instant` — use `sim_core::SimInstant`".into(),
                )),
                "std" if tok(i + 1) == ":" && tok(i + 3) == "time" => raw.push((
                    i,
                    Rule::D1,
                    "std::time".into(),
                    "wall-clock `std::time` import — use the virtual clock (`sim_core::clock`)"
                        .into(),
                )),
                _ => {}
            }
        }
        if rules.d2 && (s == "HashMap" || s == "HashSet") {
            raw.push((
                i,
                Rule::D2,
                s.into(),
                format!(
                    "hash-ordered `{s}` can leak iteration order into events/results — use \
                     `BTree{0}`, the seeded `sim_core::dmap::{1}` (deterministic iteration), \
                     or waive with `// lint: sorted`",
                    &s[4..],
                    if s == "HashMap" { "DMap" } else { "DSet" },
                ),
            ));
        }
        if rules.d3 {
            match s {
                "unwrap" | "expect" if tok(i.wrapping_sub(1)) == "." && tok(i + 1) == "(" => {
                    raw.push((
                        i,
                        Rule::D3,
                        s.into(),
                        format!("`.{s}()` in library code — return `sim_core::SimResult` instead"),
                    ));
                }
                "panic" | "todo" | "unimplemented" if tok(i + 1) == "!" => {
                    raw.push((
                        i,
                        Rule::D3,
                        format!("{s}!"),
                        format!("`{s}!` in library code — return `sim_core::SimResult` instead"),
                    ));
                }
                _ => {}
            }
        }
        if rules.d4 {
            match s {
                "static" if tok(i + 1) == "mut" => raw.push((
                    i,
                    Rule::D4,
                    "static mut".into(),
                    "`static mut` is ambient state — thread configuration through constructors"
                        .into(),
                )),
                "thread" if tok(i + 1) == ":" && tok(i + 3) == "spawn" => raw.push((
                    i,
                    Rule::D4,
                    "thread::spawn".into(),
                    "`thread::spawn` in simulation code breaks determinism".into(),
                )),
                "thread" if tok(i + 1) == ":" && tok(i + 3) == "scope" => raw.push((
                    i,
                    Rule::D4,
                    "thread::scope".into(),
                    "`thread::scope` outside the sanctioned `bench::pool` breaks determinism"
                        .into(),
                )),
                "env" if tok(i + 1) == ":" && matches!(tok(i + 3), "var" | "var_os") => raw.push((
                    i,
                    Rule::D4,
                    format!("env::{}", tok(i + 3)),
                    format!(
                        "`env::{}` reads ambient configuration — go through `sim_core::knobs` \
                         (or `sim_core::fault::seed_from_env`)",
                        tok(i + 3)
                    ),
                )),
                "process" if tok(i + 1) == ":" && tok(i + 3) == "exit" => raw.push((
                    i,
                    Rule::D4,
                    "process::exit".into(),
                    "`process::exit` bypasses unwinding — return an error instead".into(),
                )),
                _ => {}
            }
        }
    }
    raw
}
