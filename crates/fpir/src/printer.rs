//! Pretty printers: render a [`Program`] to C source (host), CUDA source
//! (device) or just the `compute` function body.
//!
//! The emitted files follow the paper's high-level structure: exactly two
//! functions, `compute` and `main`. The result (the final value of `comp`)
//! is printed to standard output as the zero-padded hexadecimal encoding of
//! its bit pattern, which is exactly what the differential tester compares
//! (Section 2.4 of the paper).

use std::fmt::Write as _;

use crate::ast::{c_fp_literal, Block, Expr, ParamType, Precision, Program, Stmt};
use crate::inputs::{InputSet, InputValue};
use crate::COMP;

/// Indentation unit used by the printers.
const INDENT: &str = "    ";

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
    let mut out = String::new();
    out.push_str("#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n\n");
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
    let mut out = String::new();
    out.push_str("#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n\n");
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
    let mut out = String::new();
    out.push_str("#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n\n");
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
    let mut params: Vec<String> = program
        .params
        .iter()
        .map(|p| match p.ty {
            ParamType::Int => format!("int {}", p.name),
            ParamType::Fp => format!("{fp} {}", p.name),
            ParamType::FpArray(_) => format!("{fp} *{}", p.name),
        })
        .collect();
    match target {
        Target::Host => {
            let _ = writeln!(out, "void compute({}) {{", params.join(", "));
        }
        Target::Device => {
            params.push(format!("{fp} *llm4fp_out"));
            let _ = writeln!(out, "__global__ void compute({}) {{", params.join(", "));
        }
    }
    let _ = writeln!(out, "{INDENT}{fp} {COMP} = 0.0{};", f32_suffix(program.precision));
    write_block(out, &program.body, program.precision, 1);
    match target {
        Target::Host => {
            // Print the bit pattern of the result from inside compute, as the
            // paper's program structure prescribes.
            match program.precision {
                Precision::F64 => {
                    let _ = writeln!(
                        out,
                        "{INDENT}union {{ double d; unsigned long long u; }} llm4fp_bits;"
                    );
                    let _ = writeln!(out, "{INDENT}llm4fp_bits.d = {COMP};");
                    let _ = writeln!(out, "{INDENT}printf(\"%016llx\\n\", llm4fp_bits.u);");
                }
                Precision::F32 => {
                    let _ =
                        writeln!(out, "{INDENT}union {{ float f; unsigned int u; }} llm4fp_bits;");
                    let _ = writeln!(out, "{INDENT}llm4fp_bits.f = {COMP};");
                    let _ = writeln!(out, "{INDENT}printf(\"%08x\\n\", llm4fp_bits.u);");
                }
            }
        }
        Target::Device => {
            let _ = writeln!(out, "{INDENT}*llm4fp_out = {COMP};");
        }
    }
    out.push_str("}\n");
}

fn write_main(out: &mut String, program: &Program, inputs: &InputSet, target: Target) {
    let fp = program.precision.c_type();
    out.push_str("int main(void) {\n");
    let mut args: Vec<String> = Vec::with_capacity(program.params.len());
    for p in &program.params {
        match (p.ty, inputs.get(&p.name)) {
            (ParamType::Int, Some(InputValue::Int(v))) => {
                let _ = writeln!(out, "{INDENT}int {} = {};", p.name, v);
            }
            (ParamType::Fp, Some(InputValue::Fp(v))) => {
                let _ = writeln!(
                    out,
                    "{INDENT}{fp} {} = {};",
                    p.name,
                    c_fp_literal(*v, program.precision)
                );
            }
            (ParamType::FpArray(len), Some(InputValue::FpArray(vals))) => {
                let elems: Vec<String> =
                    vals.iter().take(len).map(|&v| c_fp_literal(v, program.precision)).collect();
                let _ =
                    writeln!(out, "{INDENT}{fp} {}[{}] = {{{}}};", p.name, len, elems.join(", "));
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
        args.push(p.name.clone());
    }
    match target {
        Target::Host => {
            let _ = writeln!(out, "{INDENT}compute({});", args.join(", "));
        }
        Target::Device => {
            write_cuda_main_body(out, program, &args, fp);
        }
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
    let mut args: Vec<String> = Vec::with_capacity(program.params.len());
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
        args.push(p.name.clone());
    }
    let _ = writeln!(out, "{INDENT}compute({});", args.join(", "));
    let _ = writeln!(out, "{INDENT}return 0;");
    out.push_str("}\n");
}

fn write_cuda_main_body(out: &mut String, program: &Program, scalar_args: &[String], fp: &str) {
    // Device buffers for array parameters plus the output cell.
    let mut launch_args: Vec<String> = Vec::new();
    for p in &program.params {
        match p.ty {
            ParamType::FpArray(len) => {
                let dev = format!("d_{}", p.name);
                let _ = writeln!(out, "{INDENT}{fp} *{dev};");
                let _ = writeln!(out, "{INDENT}cudaMalloc(&{dev}, sizeof({fp}) * {len});");
                let _ = writeln!(
                    out,
                    "{INDENT}cudaMemcpy({dev}, {}, sizeof({fp}) * {len}, cudaMemcpyHostToDevice);",
                    p.name
                );
                launch_args.push(dev);
            }
            _ => launch_args.push(p.name.clone()),
        }
    }
    let _ = writeln!(out, "{INDENT}{fp} *d_out;");
    let _ = writeln!(out, "{INDENT}cudaMalloc(&d_out, sizeof({fp}));");
    launch_args.push("d_out".to_string());
    let _ = writeln!(out, "{INDENT}compute<<<1, 1>>>({});", launch_args.join(", "));
    let _ = writeln!(out, "{INDENT}cudaDeviceSynchronize();");
    let _ = writeln!(out, "{INDENT}{fp} llm4fp_result;");
    let _ = writeln!(
        out,
        "{INDENT}cudaMemcpy(&llm4fp_result, d_out, sizeof({fp}), cudaMemcpyDeviceToHost);"
    );
    match program.precision {
        Precision::F64 => {
            let _ =
                writeln!(out, "{INDENT}union {{ double d; unsigned long long u; }} llm4fp_bits;");
            let _ = writeln!(out, "{INDENT}llm4fp_bits.d = llm4fp_result;");
            let _ = writeln!(out, "{INDENT}printf(\"%016llx\\n\", llm4fp_bits.u);");
        }
        Precision::F32 => {
            let _ = writeln!(out, "{INDENT}union {{ float f; unsigned int u; }} llm4fp_bits;");
            let _ = writeln!(out, "{INDENT}llm4fp_bits.f = llm4fp_result;");
            let _ = writeln!(out, "{INDENT}printf(\"%08x\\n\", llm4fp_bits.u);");
        }
    }
    let _ = scalar_args; // scalars are passed by value directly in the launch
}

fn f32_suffix(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f",
        Precision::F64 => "",
    }
}

fn write_block(out: &mut String, block: &Block, precision: Precision, depth: usize) {
    let pad = INDENT.repeat(depth);
    let fp = precision.c_type();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Assign { target, op, expr } => {
                let _ =
                    writeln!(out, "{pad}{target} {} {};", op.c_str(), expr_to_c(expr, precision));
            }
            Stmt::DeclScalar { name, expr } => {
                let _ = writeln!(out, "{pad}{fp} {name} = {};", expr_to_c(expr, precision));
            }
            Stmt::DeclArray { name, size, init } => {
                let elems: Vec<String> =
                    init.iter().take(*size).map(|&v| c_fp_literal(v, precision)).collect();
                if elems.is_empty() {
                    let _ = writeln!(out, "{pad}{fp} {name}[{size}] = {{0}};");
                } else {
                    let _ = writeln!(out, "{pad}{fp} {name}[{size}] = {{{}}};", elems.join(", "));
                }
            }
            Stmt::AssignIndex { array, index, op, expr } => {
                let _ = writeln!(
                    out,
                    "{pad}{array}[{}] {} {};",
                    index.c_str(),
                    op.c_str(),
                    expr_to_c(expr, precision)
                );
            }
            Stmt::If { cond, then_block } => {
                let _ = writeln!(
                    out,
                    "{pad}if ({} {} {}) {{",
                    expr_to_c(&cond.lhs, precision),
                    cond.op.c_str(),
                    expr_to_c(&cond.rhs, precision)
                );
                write_block(out, then_block, precision, depth + 1);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::For { var, bound, body } => {
                let _ = writeln!(out, "{pad}for (int {var} = 0; {var} < {bound}; ++{var}) {{");
                write_block(out, body, precision, depth + 1);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// Render an expression to C syntax. Binary sub-expressions are wrapped in
/// parentheses only when the printed tree would otherwise re-associate under
/// standard C precedence, so the program the compilers see has exactly the
/// evaluation order of the AST.
pub fn expr_to_c(expr: &Expr, precision: Precision) -> String {
    match expr {
        Expr::Num(v) => c_fp_literal(*v, precision),
        Expr::Int(v) => v.to_string(),
        Expr::Var(name) => name.clone(),
        Expr::Index { array, index } => format!("{array}[{}]", index.c_str()),
        Expr::Paren(inner) => format!("({})", expr_to_c(inner, precision)),
        Expr::Neg(inner) => format!("-{}", child_to_c(inner, precision)),
        Expr::Bin { op, lhs, rhs } => {
            format!("{} {} {}", child_to_c(lhs, precision), op.c_str(), child_to_c(rhs, precision))
        }
        Expr::Call { func, args } => {
            let name = match precision {
                Precision::F64 => func.c_name().to_string(),
                Precision::F32 => func.c_name_f32(),
            };
            let rendered: Vec<String> = args.iter().map(|a| expr_to_c(a, precision)).collect();
            format!("{name}({})", rendered.join(", "))
        }
    }
}

/// Children of binary/unary nodes are parenthesized unless they are atomic,
/// which preserves the AST's association exactly without relying on C
/// operator precedence.
fn child_to_c(expr: &Expr, precision: Precision) -> String {
    match expr {
        Expr::Num(_)
        | Expr::Int(_)
        | Expr::Var(_)
        | Expr::Index { .. }
        | Expr::Call { .. }
        | Expr::Paren(_) => expr_to_c(expr, precision),
        _ => format!("({})", expr_to_c(expr, precision)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AssignOp, BinOp, BoolExpr, CmpOp, IndexExpr, Param};
    use crate::inputs::default_inputs;
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
}
