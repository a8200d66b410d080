//! Microbenchmarks of the condition algebra (cube conjunction, implication
//! and mutual-exclusion tests), the hot operations of the table-generation
//! algorithm.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cpg::{CondId, Cube};

fn build_cube(bits: u32, width: usize) -> Cube {
    (0..width)
        .map(|i| CondId::new(i).literal(bits & (1 << i) != 0))
        .collect()
}

fn condition_algebra(c: &mut Criterion) {
    let a = build_cube(0b1010_1010, 8);
    let b = build_cube(0b1010_1011, 8);
    let wide_a = build_cube(0x00FF_FF00, 32);
    let wide_b = build_cube(0x00FF_FF01, 32);

    c.bench_function("cube_and_cube", |bench| {
        bench.iter(|| black_box(a).and_cube(&black_box(b)));
    });
    c.bench_function("cube_implies", |bench| {
        bench.iter(|| black_box(wide_a).implies(&black_box(wide_b)));
    });
    c.bench_function("cube_excludes", |bench| {
        bench.iter(|| black_box(a).excludes(&black_box(b)));
    });
    c.bench_function("cube_literals_iteration", |bench| {
        bench.iter(|| black_box(wide_a).literals().count());
    });
}

criterion_group!(benches, condition_algebra);
criterion_main!(benches);
