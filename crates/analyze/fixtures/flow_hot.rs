//! Flow fixture: hot-path checks cover the roots and follow the call graph.

#[press::hot_path]
pub fn root() {
    step_one();
}

fn step_one() {
    leaf_bad(None);
    leaf_waived(None);
}

fn leaf_bad(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn leaf_waived(x: Option<u32>) -> u32 {
    // press::allow(hot-path-transitive): fixture — the None arm is
    // unreachable by construction.
    x.unwrap()
}

pub fn never_called(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub struct Batch {
    staged: Vec<u32>,
}

impl Batch {
    #[press::hot_path]
    pub fn flush(&mut self, x: Option<u32>) {
        let v = x.unwrap();
        self.stage(v);
    }

    fn stage(&mut self, v: u32) {
        self.staged.push(v);
    }
}
