// Lint fixture: a worker pool spawning threads outside the sanctioned
// executor module (rule 7). The engine crate stays thread-free and all
// parallelism goes through `ParallelSweep` in
// `crates/diknn-workloads/src/parallel.rs`; any worker pool living
// anywhere else must fail lint, however legitimate-looking its merge
// discipline is. Scanned as diknn-sim library code; never compiled.

pub struct RogueShardPool {
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl RogueShardPool {
    pub fn new(shards: usize) -> Self {
        let mut workers = Vec::new();
        for i in 0..shards {
            let handle = std::thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || {
                    let _ = i;
                })
                .expect("spawn shard worker");
            workers.push(handle);
        }
        RogueShardPool { workers }
    }

    pub fn compute_batch(&mut self, items: Vec<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| out.extend(items.iter().copied()));
        });
        out.sort_unstable();
        out
    }
}
