// Hot-path-marked functions that allocate. The unmarked neighbour may
// allocate freely; `Vec::new` inside the string and this comment's
// .clone() mention must not be flagged.

fn unmarked_may_allocate() -> Vec<String> {
    vec![format!("{}", 1)]
}

// lint: hot-path
fn hot_inner_loop(jobs: &[Job], out: &mut Vec<Entry>) {
    let scratch = Vec::new();
    let sized: Vec<u32> = Vec::with_capacity(jobs.len());
    let seeded = vec![0u32; jobs.len()];
    let copied = jobs.to_vec();
    let ids: Vec<u32> = copied.iter().map(|job| job.id).collect();
    for job in &copied {
        out.push(Entry {
            job: job.clone(),
            label: format!("job {job:?}"),
            note: "Vec::new, vec! and .collect() in a string are fine",
        });
    }
    // Neither is `sized.extend(ids.iter().copied())` nor `myvec![]`.
    let lookalike = myvec![ids.len()];
    drop((scratch, sized, seeded, ids, lookalike));
}

// lint: hot-path (allocation-free — must produce no findings)
fn hot_but_clean(acc: &mut u64, values: &[u64]) {
    for value in values {
        *acc = acc.wrapping_add(*value);
    }
}
