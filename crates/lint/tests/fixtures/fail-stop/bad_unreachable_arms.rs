// lint-fixture-path: crates/distributed/src/source.rs
// `unreachable!`, `todo!` and `unimplemented!` abort the thread exactly
// like `panic!`, so bare ones are findings too.

pub enum Reply {
    Entry(u64),
    Exhausted,
    Other,
}

pub fn entry(reply: Reply) -> Option<u64> {
    match reply {
        Reply::Entry(item) => Some(item),
        Reply::Exhausted => None,
        Reply::Other => unreachable!("unexpected reply"),
    }
}

pub fn later() -> u64 {
    todo!()
}

pub fn never() -> u64 {
    unimplemented!("not on this transport")
}
