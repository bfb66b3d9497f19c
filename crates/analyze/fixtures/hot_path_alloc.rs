//! Fixture: heap allocation inside `#[press::hot_path]` functions.

#[press::hot_path]
fn tagged_alloc(data: &[u8], buf: &[u8]) -> usize {
    let b = Box::new(7u64);
    let v = vec![0u8; 16];
    let copy = data.to_vec();
    let c = buf.clone();
    *b as usize + v.len() + copy.len() + c.len()
}

struct Stage {
    staged: Vec<u8>,
}

impl Stage {
    #[press::hot_path]
    fn hot_push(&mut self) {
        self.staged.push(1);
    }

    fn cold_push(&mut self) {
        self.staged.push(2);
    }
}

#[press::hot_path]
fn multiline(
    a: usize,
) -> usize {
    a.to_string().len()
}

fn untagged() -> Vec<u8> {
    let v = vec![0u8; 16];
    v
}

#[press::hot_path]
fn waived() -> usize {
    // press::allow(hot-path-transitive): cold error reporting, measured off-path
    format!("boom").len()
}
