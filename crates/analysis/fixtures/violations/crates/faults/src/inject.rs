//! Seeded-violation fixture: a fake fault-injector module that trips
//! `hot-alloc` (the on_read/on_write hooks run once per media access
//! and must not allocate). Never compiled.
//! A doc-comment Vec::new() here must NOT be flagged.

pub fn on_read(events: &mut Vec<Event>, next: Event) {
    let mut scratch: Vec<Event> = Vec::new();
    scratch.push(next);
    events.extend(scratch);
    let sized_is_fine = Vec::<u8>::with_capacity(events.len());
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_allocate() {
        let scratch: Vec<u8> = Vec::new();
    }
}
