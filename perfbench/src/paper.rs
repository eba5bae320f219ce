//! Published values from the paper (MICRO 2003), printed beside the
//! measured ones. They come from a 1.5 GHz Itanium 2 running SPEC
//! CPU2000 and Sysmark 2002; this repository runs synthetic kernels on
//! an unvalidated cycle model, so the report shows them side by side
//! and computes no error figure.

/// Figure 5: IA-32 EL as a percentage of native Itanium, per SPEC INT
/// benchmark.
pub const FIG5: [(&str, f64); 12] = [
    ("gzip", 86.0),
    ("vpr", 69.0),
    ("gcc", 51.0),
    ("mcf", 104.0),
    ("crafty", 39.0),
    ("parser", 81.0),
    ("eon", 41.0),
    ("perlbmk", 64.0),
    ("gap", 62.0),
    ("vortex", 60.0),
    ("bzip2", 74.0),
    ("twolf", 76.0),
];

/// Figure 5's geometric mean.
pub const FIG5_GEOMEAN: f64 = 65.0;

/// Figure 6: SPEC time split, percent (hot, cold, overhead, other).
pub const FIG6: [f64; 4] = [95.0, 3.0, 1.0, 1.0];

/// Figure 7: Sysmark time split, percent (hot, cold, overhead,
/// other/OS kernel, idle).
pub const FIG7: [f64; 5] = [46.0, 5.0, 12.0, 22.0, 15.0];
