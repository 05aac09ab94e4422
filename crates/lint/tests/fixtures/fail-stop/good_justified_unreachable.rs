// lint-fixture-path: crates/distributed/src/source.rs
// An arm that the protocol makes unreachable carries an allow naming the
// invariant; inside #[cfg(test)] code the macros are exempt.

pub enum Reply {
    Entry(u64),
    Exhausted,
    Other,
}

pub fn entry(reply: Reply) -> Option<u64> {
    match reply {
        Reply::Entry(item) => Some(item),
        Reply::Exhausted => None,
        // lint:allow(fail-stop) -- fixture: the owner answers an entry request with Entry or Exhausted only
        Reply::Other => unreachable!("entry request answered with another kind"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unfinished_helpers_are_fine_in_tests() {
        if false {
            todo!()
        }
    }
}
