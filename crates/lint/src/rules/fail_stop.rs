//! Rule 4, `fail-stop`: the storage and distributed layers fail through
//! the failure contract, not through panics.
//!
//! PR 4 established the failure model: a source that dies raises
//! `SourceError` and `run_on` converts the panic into `Err` at the
//! algorithm boundary — `run_on` is the only place a panic is caught.
//! A stray `.unwrap()` in the paged store or the distributed source
//! turns an injected I/O fault into an unclassified abort that the
//! fault-injection tests cannot distinguish from a bug. In the patrolled
//! modules, `.unwrap()`, `.expect(…)` and the panicking macros (`panic!`,
//! `unreachable!`, `todo!`, `unimplemented!`) are violations outside
//! tests; real failures route through `SourceError::raise()` or return
//! `io::Result`, and genuinely unreachable arms carry an allow with the
//! invariant that makes them unreachable.

use crate::rules::{under_any, Finding, Rule};
use crate::source::SourceFile;

/// Macros that abort the thread: each is a `panic!` under another name.
const PANICKING_MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Modules bound to the fail-stop contract.
const SCOPE: &[&str] = &[
    "crates/storage/src/",
    "crates/distributed/src/source.rs",
    "crates/distributed/src/runtime.rs",
    "crates/distributed/src/fault.rs",
];

pub struct FailStop;

impl Rule for FailStop {
    fn name(&self) -> &'static str {
        "fail-stop"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panicking macros in storage or the distributed source; use SourceError::raise()"
    }

    fn applies(&self, rel_path: &str) -> bool {
        under_any(rel_path, SCOPE)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.tokens;
        let mut findings = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if file.is_test_line(t.line) {
                continue;
            }
            let is_method_call = |name: &str| {
                t.is_ident(name)
                    && file.sig_prev(i).is_some_and(|p| toks[p].is_punct('.'))
                    && file.sig_next(i).is_some_and(|n| toks[n].is_punct('('))
            };
            let flagged = if is_method_call("unwrap") {
                Some(".unwrap()")
            } else if is_method_call("expect") {
                Some(".expect(…)")
            } else if file.sig_next(i).is_some_and(|n| toks[n].is_punct('!')) {
                PANICKING_MACROS
                    .iter()
                    .find(|name| t.is_ident(name.trim_end_matches('!')))
                    .copied()
            } else {
                None
            };
            if let Some(what) = flagged {
                findings.push(Finding {
                    rule: self.name(),
                    line: t.line,
                    message: format!(
                        "{what} in a fail-stop module; raise `SourceError` or return an error, \
                         or add `// lint:allow(fail-stop) -- <the invariant that makes this \
                         unreachable>`"
                    ),
                });
            }
        }
        findings
    }
}
