//! Pretty printers: render a [`Program`] to C source (host), CUDA source
//! (device) or just the `compute` function body.
//!
//! The emitted files follow the paper's high-level structure: exactly two
//! functions, `compute` and `main`. The result (the final value of `comp`)
//! is printed to standard output as the zero-padded hexadecimal encoding of
//! its bit pattern, which is exactly what the differential tester compares
//! (Section 2.4 of the paper).
//!
//! There is one append-only writer per construct: every printer pushes its
//! text straight into one output `String` (`write_compute`, `write_block`,
//! `write_expr`, the crate-private literal and index writers), so printing
//! a program allocates nothing per node or per statement. The `String`
//! returning helpers ([`expr_to_c`], [`crate::ast::c_fp_literal`],
//! [`crate::IndexExpr::c_str`]) are thin wrappers over the same writers.
//! `to_c_source`, `to_c_source_argv` and `to_cuda_source` share
//! `write_compute` with the canonical [`to_compute_source`].

use std::fmt::Write as _;

use crate::ast::{write_c_fp_literal, Block, Expr, Param, ParamType, Precision, Program, Stmt};
use crate::inputs::{InputSet, InputValue};
use crate::COMP;

/// Indentation unit used by the printers.
const INDENT: &str = "    ";

/// The `#include` lines that open every full translation unit.
const INCLUDES: &str = "#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n\n";

/// Render only the `compute` function definition (C syntax).
pub fn to_compute_source(program: &Program) -> String {
    let mut out = String::new();
    write_compute(&mut out, program, Target::Host);
    out
}

/// Render a complete, self-contained C translation unit: includes, the
/// `compute` function and a `main` that materializes `inputs`, calls
/// `compute` and prints the result bits in hexadecimal.
pub fn to_c_source(program: &Program, inputs: &InputSet) -> String {
    let mut out = String::from(INCLUDES);
    write_compute(&mut out, program, Target::Host);
    out.push('\n');
    write_main(&mut out, program, inputs, Target::Host);
    out
}

/// Render a complete C translation unit whose `main` reads the input
/// values from `argv` instead of baking them into the source: scalar and
/// array floating-point parameters are passed as zero-padded hexadecimal
/// bit patterns (16 digits for FP64, 8 for FP32, matching the output
/// encoding), integer parameters as plain decimals, flattened in
/// parameter order (array elements consecutively). This is what lets the
/// external-compiler backend compile a program **once** per configuration
/// and run the binary against many input sets — see
/// [`crate::InputSet::to_argv`] for the matching argument encoding.
pub fn to_c_source_argv(program: &Program) -> String {
    let mut out = String::from(INCLUDES);
    write_compute(&mut out, program, Target::Host);
    out.push('\n');
    write_main_argv(&mut out, program);
    out
}

/// Render the CUDA translation of the same program: `compute` becomes a
/// `__global__` kernel launched with a single block and a single thread
/// (following Varity's host-to-device translation described in Section 2.4),
/// writing its result into a device buffer that `main` copies back and
/// prints.
pub fn to_cuda_source(program: &Program, inputs: &InputSet) -> String {
    let mut out = String::from(INCLUDES);
    write_compute(&mut out, program, Target::Device);
    out.push('\n');
    write_main(&mut out, program, inputs, Target::Device);
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Target {
    Host,
    Device,
}

/// Append the `compute` function definition for `target` to `out`. The
/// host rendering is the canonical source: [`crate::program_hash`] hashes
/// exactly this text.
fn write_compute(out: &mut String, program: &Program, target: Target) {
    let fp = program.precision.c_type();
    let suffix = f32_suffix(program.precision);
    out.push_str(match target {
        Target::Host => "void compute(",
        Target::Device => "__global__ void compute(",
    });
    write_list(out, &program.params, |out, p| write_param(out, p, fp));
    if target == Target::Device {
        if !program.params.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(out, "{fp} *llm4fp_out");
    }
    let _ = writeln!(out, ") {{\n{INDENT}{fp} {COMP} = 0.0{suffix};");
    write_block(out, &program.body, program.precision, 1);
    match target {
        // Print the bit pattern of the result from inside compute, as the
        // paper's program structure prescribes.
        Target::Host => write_print_bits(out, program.precision, COMP),
        Target::Device => {
            let _ = writeln!(out, "{INDENT}*llm4fp_out = {COMP};");
        }
    }
    out.push_str("}\n");
}

/// One `compute` parameter declaration: `int n`, `double x` or `double *a`.
fn write_param(out: &mut String, p: &Param, fp: &str) {
    let _ = match p.ty {
        ParamType::Int => write!(out, "int {}", p.name),
        ParamType::Fp => write!(out, "{fp} {}", p.name),
        ParamType::FpArray(_) => write!(out, "{fp} *{}", p.name),
    };
}

/// The epilogue that prints `value`'s bit pattern in hexadecimal.
fn write_print_bits(out: &mut String, precision: Precision, value: &str) {
    let _ = match precision {
        Precision::F64 => writeln!(
            out,
            "{INDENT}union {{ double d; unsigned long long u; }} llm4fp_bits;\n\
             {INDENT}llm4fp_bits.d = {value};\n\
             {INDENT}printf(\"%016llx\\n\", llm4fp_bits.u);"
        ),
        Precision::F32 => writeln!(
            out,
            "{INDENT}union {{ float f; unsigned int u; }} llm4fp_bits;\n\
             {INDENT}llm4fp_bits.f = {value};\n\
             {INDENT}printf(\"%08x\\n\", llm4fp_bits.u);"
        ),
    };
}

/// Append `items` separated by `", "`, each written by `write`.
fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    for (k, item) in items.into_iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        write(out, item);
    }
}

/// Append `values` as a comma-separated list of C literals.
fn write_literal_list(out: &mut String, values: &[f64], precision: Precision) {
    write_list(out, values, |out, &v| write_c_fp_literal(out, v, precision));
}

/// Append the parameter names as a comma-separated argument list.
fn write_args(out: &mut String, program: &Program) {
    write_list(out, &program.params, |out, p| out.push_str(&p.name));
}

fn write_main(out: &mut String, program: &Program, inputs: &InputSet, target: Target) {
    let fp = program.precision.c_type();
    out.push_str("int main(void) {\n");
    for p in &program.params {
        match (p.ty, inputs.get(&p.name)) {
            (ParamType::Int, Some(InputValue::Int(v))) => {
                let _ = writeln!(out, "{INDENT}int {} = {};", p.name, v);
            }
            (ParamType::Fp, Some(InputValue::Fp(v))) => {
                let _ = write!(out, "{INDENT}{fp} {} = ", p.name);
                write_c_fp_literal(out, *v, program.precision);
                out.push_str(";\n");
            }
            (ParamType::FpArray(len), Some(InputValue::FpArray(vals))) => {
                let _ = write!(out, "{INDENT}{fp} {}[{}] = {{", p.name, len);
                write_literal_list(out, &vals[..len.min(vals.len())], program.precision);
                out.push_str("};\n");
            }
            // Missing/mismatched inputs fall back to zero so that the emitted
            // file still compiles; validation reports the problem separately.
            (ParamType::Int, _) => {
                let _ = writeln!(out, "{INDENT}int {} = 0;", p.name);
            }
            (ParamType::Fp, _) => {
                let _ = writeln!(
                    out,
                    "{INDENT}{fp} {} = 0.0{};",
                    p.name,
                    f32_suffix(program.precision)
                );
            }
            (ParamType::FpArray(len), _) => {
                let _ = writeln!(out, "{INDENT}{fp} {}[{}] = {{0}};", p.name, len);
            }
        }
    }
    match target {
        Target::Host => {
            let _ = write!(out, "{INDENT}compute(");
            write_args(out, program);
            out.push_str(");\n");
        }
        Target::Device => write_cuda_main_body(out, program, fp),
    }
    let _ = writeln!(out, "{INDENT}return 0;");
    out.push_str("}\n");
}

/// The `main` variant of [`to_c_source_argv`]: a bit-pattern decoding
/// helper plus a `main(argc, argv)` that materializes every parameter
/// from the argument list, in parameter order.
fn write_main_argv(out: &mut String, program: &Program) {
    let fp = program.precision.c_type();
    match program.precision {
        Precision::F64 => out.push_str(
            "static double llm4fp_arg(const char *s) {\n\
             \x20   union { double d; unsigned long long u; } v;\n\
             \x20   v.u = strtoull(s, 0, 16);\n\
             \x20   return v.d;\n}\n\n",
        ),
        Precision::F32 => out.push_str(
            "static float llm4fp_arg(const char *s) {\n\
             \x20   union { float f; unsigned int u; } v;\n\
             \x20   v.u = (unsigned int)strtoul(s, 0, 16);\n\
             \x20   return v.f;\n}\n\n",
        ),
    }
    out.push_str("int main(int argc, char **argv) {\n");
    let _ = writeln!(out, "{INDENT}int llm4fp_k = 1;");
    let _ = writeln!(out, "{INDENT}(void)argc;");
    for p in &program.params {
        match p.ty {
            ParamType::Int => {
                let _ = writeln!(out, "{INDENT}int {} = atoi(argv[llm4fp_k++]);", p.name);
            }
            ParamType::Fp => {
                let _ = writeln!(out, "{INDENT}{fp} {} = llm4fp_arg(argv[llm4fp_k++]);", p.name);
            }
            ParamType::FpArray(len) => {
                let _ = writeln!(out, "{INDENT}{fp} {}[{}];", p.name, len);
                let _ = writeln!(
                    out,
                    "{INDENT}for (int llm4fp_i = 0; llm4fp_i < {len}; ++llm4fp_i) {{ \
                     {}[llm4fp_i] = llm4fp_arg(argv[llm4fp_k++]); }}",
                    p.name
                );
            }
        }
    }
    let _ = write!(out, "{INDENT}compute(");
    write_args(out, program);
    out.push_str(");\n");
    let _ = writeln!(out, "{INDENT}return 0;");
    out.push_str("}\n");
}

fn write_cuda_main_body(out: &mut String, program: &Program, fp: &str) {
    // Device buffers for array parameters plus the output cell; scalars are
    // passed by value directly in the launch.
    for p in &program.params {
        if let ParamType::FpArray(len) = p.ty {
            let name = &p.name;
            let _ = writeln!(
                out,
                "{INDENT}{fp} *d_{name};\n\
                 {INDENT}cudaMalloc(&d_{name}, sizeof({fp}) * {len});\n\
                 {INDENT}cudaMemcpy(d_{name}, {name}, sizeof({fp}) * {len}, cudaMemcpyHostToDevice);"
            );
        }
    }
    let _ = writeln!(out, "{INDENT}{fp} *d_out;");
    let _ = writeln!(out, "{INDENT}cudaMalloc(&d_out, sizeof({fp}));");
    let _ = write!(out, "{INDENT}compute<<<1, 1>>>(");
    for p in &program.params {
        if matches!(p.ty, ParamType::FpArray(_)) {
            out.push_str("d_");
        }
        out.push_str(&p.name);
        out.push_str(", ");
    }
    out.push_str("d_out);\n");
    let _ = writeln!(out, "{INDENT}cudaDeviceSynchronize();");
    let _ = writeln!(out, "{INDENT}{fp} llm4fp_result;");
    let _ = writeln!(
        out,
        "{INDENT}cudaMemcpy(&llm4fp_result, d_out, sizeof({fp}), cudaMemcpyDeviceToHost);"
    );
    write_print_bits(out, program.precision, "llm4fp_result");
}

fn f32_suffix(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f",
        Precision::F64 => "",
    }
}

fn write_block(out: &mut String, block: &Block, precision: Precision, depth: usize) {
    let fp = precision.c_type();
    for stmt in &block.stmts {
        for _ in 0..depth {
            out.push_str(INDENT);
        }
        match stmt {
            Stmt::Assign { target, op, expr } => {
                out.push_str(target);
                write_assign_rhs(out, op.c_str(), expr, precision);
            }
            Stmt::DeclScalar { name, expr } => {
                let _ = write!(out, "{fp} {name}");
                write_assign_rhs(out, "=", expr, precision);
            }
            Stmt::DeclArray { name, size, init } => {
                let _ = write!(out, "{fp} {name}[{size}] = {{");
                if init.is_empty() || *size == 0 {
                    out.push('0');
                } else {
                    write_literal_list(out, &init[..init.len().min(*size)], precision);
                }
                out.push_str("};\n");
            }
            Stmt::AssignIndex { array, index, op, expr } => {
                out.push_str(array);
                out.push('[');
                index.write_c(out);
                out.push(']');
                write_assign_rhs(out, op.c_str(), expr, precision);
            }
            Stmt::If { cond, then_block } => {
                out.push_str("if (");
                write_expr(out, &cond.lhs, precision);
                out.push(' ');
                out.push_str(cond.op.c_str());
                out.push(' ');
                write_expr(out, &cond.rhs, precision);
                out.push_str(") {\n");
                write_block(out, then_block, precision, depth + 1);
                write_close_brace(out, depth);
            }
            Stmt::For { var, bound, body } => {
                let _ = writeln!(out, "for (int {var} = 0; {var} < {bound}; ++{var}) {{");
                write_block(out, body, precision, depth + 1);
                write_close_brace(out, depth);
            }
        }
    }
}

/// ` <op> <expr>;` and the line break that ends an assignment.
fn write_assign_rhs(out: &mut String, op: &str, expr: &Expr, precision: Precision) {
    out.push(' ');
    out.push_str(op);
    out.push(' ');
    write_expr(out, expr, precision);
    out.push_str(";\n");
}

fn write_close_brace(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str(INDENT);
    }
    out.push_str("}\n");
}

/// Render an expression to C syntax. Binary sub-expressions are wrapped in
/// parentheses only when the printed tree would otherwise re-associate under
/// standard C precedence, so the program the compilers see has exactly the
/// evaluation order of the AST.
pub fn expr_to_c(expr: &Expr, precision: Precision) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, precision);
    out
}

/// Append [`expr_to_c`]`(expr, precision)` to `out`.
fn write_expr(out: &mut String, expr: &Expr, precision: Precision) {
    match expr {
        Expr::Num(v) => write_c_fp_literal(out, *v, precision),
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(name) => out.push_str(name),
        Expr::Index { array, index } => {
            out.push_str(array);
            out.push('[');
            index.write_c(out);
            out.push(']');
        }
        Expr::Paren(inner) => {
            out.push('(');
            write_expr(out, inner, precision);
            out.push(')');
        }
        Expr::Neg(inner) => {
            out.push('-');
            write_child(out, inner, precision);
        }
        Expr::Bin { op, lhs, rhs } => {
            write_child(out, lhs, precision);
            out.push(' ');
            out.push_str(op.c_str());
            out.push(' ');
            write_child(out, rhs, precision);
        }
        Expr::Call { func, args } => {
            out.push_str(func.c_name());
            if precision == Precision::F32 {
                out.push('f');
            }
            out.push('(');
            write_list(out, args, |out, arg| write_expr(out, arg, precision));
            out.push(')');
        }
    }
}

/// Children of binary/unary nodes are parenthesized unless they are atomic,
/// which preserves the AST's association exactly without relying on C
/// operator precedence.
fn write_child(out: &mut String, expr: &Expr, precision: Precision) {
    match expr {
        Expr::Num(_)
        | Expr::Int(_)
        | Expr::Var(_)
        | Expr::Index { .. }
        | Expr::Call { .. }
        | Expr::Paren(_) => write_expr(out, expr, precision),
        _ => {
            out.push('(');
            write_expr(out, expr, precision);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AssignOp, BinOp, BoolExpr, CmpOp, IndexExpr, Param};
    use crate::inputs::default_inputs;
    use crate::inputs::InputValue;
    use crate::MathFunc;

    fn sample_program() -> Program {
        let params = vec![
            Param::new("x", ParamType::Fp),
            Param::new("n", ParamType::Int),
            Param::new("a", ParamType::FpArray(4)),
        ];
        let mut body = Block::default();
        body.push(Stmt::DeclScalar {
            name: "t0".into(),
            expr: Expr::bin(BinOp::Mul, Expr::var("x"), Expr::Num(0.5)),
        });
        body.push(Stmt::For {
            var: "i".into(),
            bound: 4,
            body: Block::new(vec![Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Add,
                expr: Expr::bin(
                    BinOp::Mul,
                    Expr::Index { array: "a".into(), index: IndexExpr::Var("i".into()) },
                    Expr::var("t0"),
                ),
            }]),
        });
        body.push(Stmt::If {
            cond: BoolExpr { lhs: Expr::var(COMP), op: CmpOp::Gt, rhs: Expr::Num(1.0) },
            then_block: Block::new(vec![Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Assign,
                expr: Expr::call(MathFunc::Sqrt, vec![Expr::var(COMP)]),
            }]),
        });
        Program { precision: Precision::F64, params, body }
    }

    #[test]
    fn c_source_contains_required_structure() {
        let p = sample_program();
        let src = to_c_source(&p, &default_inputs(&p.params));
        assert!(src.contains("#include <math.h>"));
        assert!(src.contains("void compute(double x, int n, double *a)"));
        assert!(src.contains("double comp = 0.0;"));
        assert!(src.contains("for (int i = 0; i < 4; ++i) {"));
        assert!(src.contains("if (comp > 1.0) {"));
        assert!(src.contains("printf(\"%016llx\\n\""));
        assert!(src.contains("int main(void)"));
        assert!(src.contains("compute(x, n, a);"));
        // Exactly two functions.
        assert!(src.matches("compute(").count() >= 2);
        assert_eq!(src.matches("int main").count(), 1);
    }

    #[test]
    fn argv_source_parses_every_parameter_from_the_command_line() {
        let p = sample_program();
        let src = to_c_source_argv(&p);
        assert!(src.contains("static double llm4fp_arg(const char *s)"));
        assert!(src.contains("strtoull(s, 0, 16)"));
        assert!(src.contains("int main(int argc, char **argv)"));
        assert!(src.contains("double x = llm4fp_arg(argv[llm4fp_k++]);"));
        assert!(src.contains("int n = atoi(argv[llm4fp_k++]);"));
        assert!(src.contains("double a[4];"));
        assert!(src.contains("a[llm4fp_i] = llm4fp_arg(argv[llm4fp_k++]);"));
        assert!(src.contains("compute(x, n, a);"));
        // The compute function is identical to the baked-input rendering —
        // only main differs, so compiled behaviour matches bit for bit.
        let compute = to_compute_source(&p);
        assert!(src.contains(&compute));
        assert!(to_c_source(&p, &default_inputs(&p.params)).contains(&compute));
        // F32 programs decode single-precision bit patterns.
        let mut p32 = sample_program();
        p32.precision = Precision::F32;
        let src32 = to_c_source_argv(&p32);
        assert!(src32.contains("static float llm4fp_arg(const char *s)"));
        assert!(src32.contains("strtoul(s, 0, 16)"));
    }

    #[test]
    fn cuda_source_uses_global_kernel_and_single_thread_launch() {
        let p = sample_program();
        let src = to_cuda_source(&p, &default_inputs(&p.params));
        assert!(src.contains("__global__ void compute("));
        assert!(src.contains("compute<<<1, 1>>>("));
        assert!(src.contains("cudaMemcpy"));
        assert!(src.contains("cudaDeviceSynchronize()"));
    }

    #[test]
    fn f32_program_uses_float_spelling_and_suffixed_calls() {
        let mut p = sample_program();
        p.precision = Precision::F32;
        let src = to_c_source(&p, &default_inputs(&p.params));
        assert!(src.contains("void compute(float x, int n, float *a)"));
        assert!(src.contains("float comp = 0.0f;"));
        assert!(src.contains("sqrtf(comp)"));
        assert!(src.contains("printf(\"%08x\\n\""));
    }

    #[test]
    fn expression_printing_preserves_association() {
        // (a - b) - c  vs  a - (b - c) must print differently.
        let left = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::var("a"), Expr::var("b")),
            Expr::var("c"),
        );
        let right = Expr::bin(
            BinOp::Sub,
            Expr::var("a"),
            Expr::bin(BinOp::Sub, Expr::var("b"), Expr::var("c")),
        );
        let l = expr_to_c(&left, Precision::F64);
        let r = expr_to_c(&right, Precision::F64);
        assert_ne!(l, r);
        assert_eq!(l, "(a - b) - c");
        assert_eq!(r, "a - (b - c)");
    }

    #[test]
    fn negation_and_calls_print_correctly() {
        let e =
            Expr::Neg(Box::new(Expr::call(MathFunc::Pow, vec![Expr::var("x"), Expr::Num(2.0)])));
        assert_eq!(expr_to_c(&e, Precision::F64), "-pow(x, 2.0)");
    }

    #[test]
    fn missing_inputs_fall_back_to_zero_initializers() {
        let p = sample_program();
        let src = to_c_source(&p, &InputSet::new());
        assert!(src.contains("double x = 0.0;"));
        assert!(src.contains("int n = 0;"));
        assert!(src.contains("double a[4] = {0};"));
    }

    #[test]
    fn array_declarations_print_initializers() {
        let mut body = Block::default();
        body.push(Stmt::DeclArray { name: "buf".into(), size: 3, init: vec![1.0, 2.5] });
        let p = Program { precision: Precision::F64, params: vec![], body };
        let src = to_compute_source(&p);
        // 1.0 prints as a decimal, 2.5 as an exact hex-float literal.
        assert!(src.contains("double buf[3] = {1.0, 0x1.4p+1};"), "{src}");
    }

    /// A program exercising every literal spelling (NaN, ±inf, −0.0, a
    /// subnormal, a value just past the decimal cutoff), every array
    /// declaration shape and every index form.
    fn literal_and_index_program() -> Program {
        let params = vec![
            Param::new("x", ParamType::Fp),
            Param::new("k", ParamType::Int),
            Param::new("a", ParamType::FpArray(3)),
        ];
        let num = Expr::Num;
        let index = |array: &str, index| Expr::Index { array: array.into(), index };
        let body = Block::new(vec![
            Stmt::DeclArray { name: "e".into(), size: 3, init: vec![] },
            Stmt::DeclArray { name: "z".into(), size: 0, init: vec![] },
            Stmt::DeclArray { name: "t".into(), size: 2, init: vec![1.0, 0.1, 3.0] },
            Stmt::DeclScalar {
                name: "s".into(),
                expr: Expr::bin(BinOp::Add, num(f64::NAN), num(f64::INFINITY)),
            },
            Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Assign,
                expr: Expr::bin(BinOp::Mul, num(f64::NEG_INFINITY), num(-0.0)),
            },
            Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Add,
                expr: Expr::bin(
                    BinOp::Div,
                    Expr::bin(BinOp::Sub, num(5e-324), num(-5e-324)),
                    Expr::bin(BinOp::Add, num(1e6), num(-999_999.0)).paren(),
                ),
            },
            Stmt::For {
                var: "i".into(),
                bound: 3,
                body: Block::new(vec![
                    Stmt::AssignIndex {
                        array: "e".into(),
                        index: IndexExpr::Offset { var: "i".into(), offset: -1 },
                        op: AssignOp::Sub,
                        expr: Expr::Neg(Box::new(Expr::bin(
                            BinOp::Mul,
                            index("a", IndexExpr::Offset { var: "i".into(), offset: 2 }),
                            index("t", IndexExpr::Mod { var: "i".into(), modulus: 2 }),
                        ))),
                    },
                    Stmt::If {
                        cond: BoolExpr {
                            lhs: index("e", IndexExpr::Const(0)),
                            op: CmpOp::Ne,
                            rhs: Expr::Neg(Box::new(Expr::var("x"))),
                        },
                        then_block: Block::new(vec![Stmt::Assign {
                            target: COMP.into(),
                            op: AssignOp::Mul,
                            expr: Expr::call(
                                MathFunc::Fma,
                                vec![
                                    Expr::Int(-3),
                                    num(1e300),
                                    Expr::call(
                                        MathFunc::Exp,
                                        vec![index("a", IndexExpr::Var("i".into()))],
                                    ),
                                ],
                            ),
                        }]),
                    },
                ]),
            },
        ]);
        Program { precision: Precision::F64, params, body }
    }

    /// Inputs cycling through the special values, with one array longer
    /// than its parameter so `main` truncates it.
    fn special_inputs(program: &Program) -> InputSet {
        let specials = [0.1, f64::NAN, f64::NEG_INFINITY, -0.0, 5e-324, f64::INFINITY, 2.0];
        let mut set = InputSet::new();
        for (k, p) in program.params.iter().enumerate() {
            let v = match p.ty {
                ParamType::Int => InputValue::Int(-(k as i64) - 1),
                ParamType::Fp => InputValue::Fp(specials[k % specials.len()]),
                ParamType::FpArray(len) => InputValue::FpArray(
                    (0..len + 1).map(|i| specials[(k + i) % specials.len()]).collect(),
                ),
            };
            set.insert(&p.name, v);
        }
        set
    }

    /// Every golden case: the hash corpus, a constant program, F32
    /// variants and the literal/index program, each with special inputs;
    /// one case renders with no inputs at all.
    fn golden_cases() -> Vec<(String, Program, InputSet)> {
        let mut programs: Vec<(String, Program)> = crate::hash::tests::CORPUS
            .iter()
            .enumerate()
            .map(|(k, src)| (format!("corpus{k}"), crate::parse_compute(src).unwrap()))
            .collect();
        programs.push(("constant".into(), crate::hash::tests::program_with_constant(0.1)));
        let mut f32_corpus = programs[3].1.clone();
        f32_corpus.precision = Precision::F32;
        programs.push(("corpus3_f32".into(), f32_corpus));
        programs.push(("literals".into(), literal_and_index_program()));
        let mut f32_literals = literal_and_index_program();
        f32_literals.precision = Precision::F32;
        programs.push(("literals_f32".into(), f32_literals));
        let mut cases: Vec<(String, Program, InputSet)> = programs
            .into_iter()
            .map(|(name, p)| {
                let inputs = special_inputs(&p);
                (name, p, inputs)
            })
            .collect();
        cases.push(("literals_no_inputs".into(), literal_and_index_program(), InputSet::new()));
        cases
    }

    /// All four renderings of every golden case, in one text with a
    /// `=== case/printer` header before each rendering.
    fn render_golden() -> String {
        let mut out = String::new();
        for (name, p, inputs) in golden_cases() {
            let renderings = [
                ("to_compute_source", to_compute_source(&p)),
                ("to_c_source", to_c_source(&p, &inputs)),
                ("to_c_source_argv", to_c_source_argv(&p)),
                ("to_cuda_source", to_cuda_source(&p, &inputs)),
            ];
            for (printer, text) in renderings {
                let _ = writeln!(out, "=== {name}/{printer}");
                out.push_str(&text);
            }
        }
        out
    }

    #[test]
    fn printer_output_is_pinned_byte_for_byte() {
        // Sources reach `result.json` verbatim and extcc compiles the
        // rendered files, so whitespace counts too (program ids hash
        // tokens and would miss it). Edit the golden file only for an
        // intended change to every rendered program.
        let golden = include_str!("../testdata/printer_golden.txt");
        let rendered = render_golden();
        for (got, want) in rendered.split("=== ").zip(golden.split("=== ")) {
            assert_eq!(got, want);
        }
        assert_eq!(rendered, golden);
    }
}
