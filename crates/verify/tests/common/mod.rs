//! Helpers shared by the verify property tests.

use flexprot_isa::Rng64;

/// A random well-formed MiniC program over four variables and one helper
/// call. `analysis_props.rs` only compiles and analyzes it; the oracle in
/// `alias_props.rs` also runs it (fuel-bounded), so every `while` body
/// ends by decrementing its counter to bias toward loops that terminate
/// and reach their epilogue stores.
pub fn random_minic(rng: &mut Rng64) -> String {
    const VARS: [&str; 4] = ["a", "b", "c", "d"];
    fn var(rng: &mut Rng64) -> &'static str {
        VARS[rng.index(VARS.len())]
    }
    fn expr(rng: &mut Rng64) -> String {
        match rng.index(4) {
            0 => var(rng).to_owned(),
            1 => rng.index(50).to_string(),
            2 => format!(
                "{} {} {}",
                var(rng),
                ["+", "-", "*"][rng.index(3)],
                var(rng)
            ),
            _ => format!("{} + {}", var(rng), 1 + rng.index(9)),
        }
    }
    fn stmt(rng: &mut Rng64, depth: usize, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match rng.index(if depth > 0 { 5 } else { 2 }) {
            0 | 1 => {
                let (v, e) = (var(rng), expr(rng));
                out.push_str(&format!("{pad}{v} = {e};\n"));
            }
            2 => {
                out.push_str(&format!("{pad}if ({} < {}) {{\n", var(rng), rng.index(40)));
                block(rng, depth - 1, out, indent + 1);
                if rng.chance(0.5) {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    block(rng, depth - 1, out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            3 => {
                let v = var(rng);
                out.push_str(&format!("{pad}while ({v} > 0) {{\n"));
                block(rng, depth - 1, out, indent + 1);
                out.push_str(&format!("{}{v} = {v} - 1;\n", "    ".repeat(indent + 1)));
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                let v = var(rng);
                out.push_str(&format!("{pad}{v} = helper({});\n", expr(rng)));
            }
        }
    }
    fn block(rng: &mut Rng64, depth: usize, out: &mut String, indent: usize) {
        for _ in 0..1 + rng.index(3) {
            stmt(rng, depth, out, indent);
        }
    }

    let mut body = String::new();
    for v in VARS {
        body.push_str(&format!("    int {v} = {};\n", rng.index(20)));
    }
    block(rng, 2, &mut body, 1);
    body.push_str("    print(a + b + c + d);\n    return 0;\n");
    format!("int helper(int x) {{ return x * 2 + 1; }}\n\nint main() {{\n{body}}}\n")
}
