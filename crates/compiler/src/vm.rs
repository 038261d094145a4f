//! The register VM: executes a [`SealedProgram`] against input sets.
//!
//! Execution state lives in an [`ExecScratch`] — flat `Vec<f64>` /
//! `Vec<i64>` register and slot files plus one buffer per array slot —
//! that is reused across runs, so executing a sealed artifact on a whole
//! batch of input sets performs no allocation after the first run. The
//! dispatch loop reproduces the reference interpreter's semantics bit for
//! bit (see the contract in [`crate::bytecode`]): every arithmetic result
//! goes through the same round/flush sequence, math calls dispatch into
//! the same library instance kind, and fuel is consumed at the same
//! points.

use llm4fp_fpir::{BinOp, InputSet, InputValue, Precision};
use llm4fp_mathlib::flush_to_zero;

use crate::bytecode::{Instr, ParamBind, SealedProgram, SlotIndex};
use crate::interp::{dispatch_math, ExecError, ExecResult, DEFAULT_FUEL};

/// Reusable execution state for the register VM. One scratch serves any
/// number of sealed programs (it is resized on demand); reusing it across
/// runs is what makes the hot path allocation-free.
#[derive(Debug, Default)]
pub struct ExecScratch {
    regs: Vec<f64>,
    scalars: Vec<f64>,
    ints: Vec<i64>,
    arrays: Vec<Vec<f64>>,
    /// Largest register file any program prepared against this scratch
    /// (reported up to `summary.json` by the orchestrator).
    peak_regs: usize,
}

impl ExecScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// The largest floating-point register file prepared so far.
    pub fn peak_regs(&self) -> usize {
        self.peak_regs
    }

    /// Size every file for `program` and zero-fill it. Zeroing matches the
    /// defined portion of the interpreter's state; validated programs
    /// never read a scalar before writing it, so stale values from a
    /// previous run are unreachable either way.
    fn prepare(&mut self, program: &SealedProgram) {
        self.peak_regs = self.peak_regs.max(program.n_regs);
        self.regs.clear();
        self.regs.resize(program.n_regs, 0.0);
        self.scalars.clear();
        self.scalars.resize(program.n_scalars, 0.0);
        self.ints.clear();
        self.ints.resize(program.n_ints, 0);
        let arrays = &program.layout.arrays;
        self.arrays.resize_with(arrays.len().max(self.arrays.len()), Vec::new);
        for (buf, slot) in self.arrays.iter_mut().zip(arrays) {
            buf.clear();
            buf.resize(slot.len, 0.0);
        }
    }
}

impl SealedProgram {
    /// Execute on one input set with the default fuel budget, using a
    /// fresh scratch. Prefer [`SealedProgram::execute_into`] on hot paths.
    pub fn execute(&self, inputs: &InputSet) -> Result<ExecResult, ExecError> {
        self.execute_into(inputs, DEFAULT_FUEL, &mut ExecScratch::new())
    }

    /// Execute with an explicit fuel budget and a fresh scratch.
    pub fn execute_with_fuel(&self, inputs: &InputSet, fuel: u64) -> Result<ExecResult, ExecError> {
        self.execute_into(inputs, fuel, &mut ExecScratch::new())
    }

    /// Execute reusing `scratch` (allocation-free after its first use).
    pub fn execute_into(
        &self,
        inputs: &InputSet,
        fuel: u64,
        scratch: &mut ExecScratch,
    ) -> Result<ExecResult, ExecError> {
        scratch.prepare(self);
        self.bind(inputs, scratch)?;
        self.run(fuel, scratch)
    }

    /// Bind the `compute` parameters, in declaration order, with the
    /// interpreter's exact rounding and error behaviour.
    fn bind(&self, inputs: &InputSet, scratch: &mut ExecScratch) -> Result<(), ExecError> {
        for p in &self.layout.params {
            match (&p.bind, inputs.get(&p.name)) {
                (ParamBind::Int { slot }, Some(InputValue::Int(v))) => {
                    scratch.ints[*slot as usize] = *v;
                }
                (ParamBind::Fp { slot }, Some(InputValue::Fp(v))) => {
                    scratch.scalars[*slot as usize] = self.round(*v);
                }
                (ParamBind::Array { slot }, Some(InputValue::FpArray(vals))) => {
                    let buf = &mut scratch.arrays[*slot as usize];
                    for (dst, &v) in buf.iter_mut().zip(vals.iter()) {
                        *dst = self.round(v);
                    }
                }
                _ => return Err(ExecError::MissingInput(p.name.clone())),
            }
        }
        // The accumulator is implicitly declared and zero-initialized
        // (already true after `prepare`, restated for clarity).
        scratch.scalars[self.comp_slot as usize] = 0.0;
        Ok(())
    }

    /// Round an exact `f64` to the program precision.
    #[inline(always)]
    fn round(&self, v: f64) -> f64 {
        crate::bytecode::round_to(self.precision, v)
    }

    /// Round an arithmetic result, applying flush-to-zero when the
    /// semantics require it.
    #[inline(always)]
    fn finish(&self, v: f64) -> f64 {
        let v = self.round(v);
        if self.flush_to_zero {
            flush_to_zero(v)
        } else {
            v
        }
    }

    // The evaluation helpers below are the register machine's arithmetic,
    // one per arithmetic instruction, called from the dispatch loop.

    /// Evaluate a `Bin` instruction's result from its operand values.
    #[inline(always)]
    fn eval_bin(&self, op: BinOp, a: f64, b: f64) -> f64 {
        let raw = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        };
        self.finish(raw)
    }

    /// Evaluate an `Fma` instruction's result from its operand values.
    #[inline(always)]
    fn eval_fma(&self, a: f64, b: f64, c: f64) -> f64 {
        let raw = match self.precision {
            Precision::F64 => a.mul_add(b, c),
            Precision::F32 => ((a as f32).mul_add(b as f32, c as f32)) as f64,
        };
        self.finish(raw)
    }

    /// Evaluate a `Recip` instruction's result from its operand value.
    #[inline(always)]
    fn eval_recip(&self, approx: bool, v: f64) -> f64 {
        let raw = if approx { self.fast.approx_recip(v) } else { 1.0 / v };
        self.finish(raw)
    }

    /// Evaluate a `Call` instruction's result from its (zero-padded)
    /// argument values. Math results are rounded to precision but never
    /// flushed, matching the interpreter.
    #[inline(always)]
    fn eval_call(&self, func: llm4fp_fpir::MathFunc, a: f64, b: f64, c: f64) -> f64 {
        self.round(dispatch_math(self.math.as_ref(), func, a, b, c))
    }

    /// Resolve an element index against the current int file, with the
    /// interpreter's bounds check (the error is cold: validated programs
    /// are statically bounds-safe).
    #[inline(always)]
    fn element(
        &self,
        array: u16,
        index: SlotIndex,
        scratch: &ExecScratch,
    ) -> Result<(usize, usize), ExecError> {
        let idx = index.eval(&scratch.ints);
        let len = self.layout.arrays[array as usize].len;
        if idx < 0 || idx as usize >= len {
            let name = self.layout.names[self.layout.arrays[array as usize].name as usize].clone();
            return Err(ExecError::IndexOutOfBounds { array: name, index: idx, len });
        }
        Ok((array as usize, idx as usize))
    }

    fn run(&self, fuel: u64, scratch: &mut ExecScratch) -> Result<ExecResult, ExecError> {
        let mut fuel = fuel;
        let mut steps: u64 = 0;
        let mut pc: usize = 0;
        loop {
            match self.instrs[pc] {
                Instr::Burn => {
                    if fuel == 0 {
                        return Err(ExecError::FuelExhausted);
                    }
                    fuel -= 1;
                    steps += 1;
                }
                Instr::Const { dst, value } => scratch.regs[dst as usize] = value,
                Instr::LoadScalar { dst, slot } => {
                    scratch.regs[dst as usize] = scratch.scalars[slot as usize];
                }
                Instr::LoadInt { dst, slot } => {
                    scratch.regs[dst as usize] = self.round(scratch.ints[slot as usize] as f64);
                }
                Instr::LoadElem { dst, array, index } => {
                    let (a, i) = self.element(array, index, scratch)?;
                    scratch.regs[dst as usize] = scratch.arrays[a][i];
                }
                Instr::Neg { dst, src } => {
                    scratch.regs[dst as usize] = -scratch.regs[src as usize];
                }
                Instr::Bin { op, dst, lhs, rhs } => {
                    let a = scratch.regs[lhs as usize];
                    let b = scratch.regs[rhs as usize];
                    scratch.regs[dst as usize] = self.eval_bin(op, a, b);
                }
                Instr::Fma { dst, a, b, c } => {
                    let (a, b, c) = (
                        scratch.regs[a as usize],
                        scratch.regs[b as usize],
                        scratch.regs[c as usize],
                    );
                    scratch.regs[dst as usize] = self.eval_fma(a, b, c);
                }
                Instr::Recip { dst, src, approx } => {
                    let v = scratch.regs[src as usize];
                    scratch.regs[dst as usize] = self.eval_recip(approx, v);
                }
                Instr::Call { func, dst, base, arity } => {
                    let a = scratch.regs[base as usize];
                    let b = if arity > 1 { scratch.regs[base as usize + 1] } else { 0.0 };
                    let c = if arity > 2 { scratch.regs[base as usize + 2] } else { 0.0 };
                    scratch.regs[dst as usize] = self.eval_call(func, a, b, c);
                }
                Instr::StoreScalar { slot, src } => {
                    scratch.scalars[slot as usize] = scratch.regs[src as usize];
                }
                Instr::StoreElem { array, index, src } => {
                    let value = scratch.regs[src as usize];
                    let (a, i) = self.element(array, index, scratch)?;
                    scratch.arrays[a][i] = value;
                }
                Instr::DeclArray { array, init } => {
                    let len = self.layout.arrays[array as usize].len;
                    let start = init as usize;
                    scratch.arrays[array as usize]
                        .copy_from_slice(&self.layout.init_pool[start..start + len]);
                }
                Instr::SetInt { slot, value } => scratch.ints[slot as usize] = value,
                Instr::IncInt { slot } => scratch.ints[slot as usize] += 1,
                Instr::JumpIfIntGe { slot, bound, target } => {
                    if scratch.ints[slot as usize] >= bound {
                        pc = target as usize;
                        continue;
                    }
                }
                Instr::JumpCmpFalse { op, lhs, rhs, target } => {
                    if !op.eval(scratch.regs[lhs as usize], scratch.regs[rhs as usize]) {
                        pc = target as usize;
                        continue;
                    }
                }
                Instr::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Instr::Halt => {
                    return Ok(ExecResult {
                        value: scratch.scalars[self.comp_slot as usize],
                        precision: self.precision,
                        steps,
                    });
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::SealError;
    use crate::compile::compile;
    use crate::config::{CompilerConfig, CompilerId, OptLevel};
    use llm4fp_fpir::{parse_compute, InputValue};

    /// Compile under every configuration, seal, and assert the VM matches
    /// the reference interpreter exactly: same value bits, same step
    /// count, and the same error at every fuel budget up to completion.
    fn assert_vm_matches_interp(src: &str, inputs: &InputSet) {
        let program = parse_compute(src).unwrap();
        let mut scratch = ExecScratch::new();
        for config in CompilerConfig::full_matrix() {
            let artifact = compile(&program, config).unwrap();
            let sealed =
                artifact.seal().unwrap_or_else(|e| panic!("seal failed under {config}: {e}"));
            let reference = artifact.execute(inputs);
            let vm = sealed.execute_into(inputs, DEFAULT_FUEL, &mut scratch);
            match (&reference, &vm) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.bits(), b.bits(), "{config}");
                    assert_eq!(a.steps, b.steps, "{config}");
                    assert_eq!(a.precision, b.precision, "{config}");
                }
                other => panic!("outcome mismatch under {config}: {other:?}"),
            }
            // Exact fuel-exhaustion parity: starve both engines at every
            // budget below the step count.
            let steps = reference.unwrap().steps;
            for fuel in 0..steps.min(64) {
                let a = artifact.execute_with_fuel(inputs, fuel);
                let b = sealed.execute_into(inputs, fuel, &mut scratch);
                assert_eq!(a, b, "fuel {fuel} under {config}");
                assert_eq!(a.unwrap_err(), ExecError::FuelExhausted);
            }
            if steps > 64 {
                let a = artifact.execute_with_fuel(inputs, steps - 1);
                let b = sealed.execute_into(inputs, steps - 1, &mut scratch);
                assert_eq!(a, b, "fuel {} under {config}", steps - 1);
            }
        }
    }

    #[test]
    fn straight_line_arithmetic_matches() {
        let src = "void compute(double x, double y) { comp = x * y + 2.5; comp /= y - 0.5; }";
        let inputs = InputSet::new().with("x", InputValue::Fp(3.0)).with("y", InputValue::Fp(2.0));
        assert_vm_matches_interp(src, &inputs);
    }

    #[test]
    fn loops_conditionals_arrays_and_math_match() {
        let src = "void compute(double *a, double s, int n) {\n\
                   double acc = 0.0;\n\
                   double buf[3] = {1.5, -2.25};\n\
                   for (int i = 0; i < 4; ++i) {\n\
                     acc += a[i] * s + sin(a[i]);\n\
                     buf[i % 3] = acc / (s + 2.0);\n\
                   }\n\
                   if (acc > 1.0) { comp = acc - buf[0]; }\n\
                   if (acc <= 1.0) { comp = acc + buf[n % 3] * exp(s); }\n\
                   }";
        let inputs = InputSet::new()
            .with("a", InputValue::FpArray(vec![0.5, -1.25, 2.0, 0.75]))
            .with("s", InputValue::Fp(0.375))
            .with("n", InputValue::Int(7));
        assert_vm_matches_interp(src, &inputs);
    }

    #[test]
    fn nested_loops_with_shadowed_variables_match() {
        let src = "void compute(int i, double x) {\n\
                   comp = 0.0;\n\
                   for (int i = 0; i < 3; ++i) {\n\
                     for (int j = 0; j < 2; ++j) { comp += x * i - j; }\n\
                   }\n\
                   comp += i;\n\
                   }";
        let inputs = InputSet::new().with("i", InputValue::Int(10)).with("x", InputValue::Fp(1.5));
        assert_vm_matches_interp(src, &inputs);
    }

    #[test]
    fn f32_programs_round_identically() {
        let src = "void compute(float x, float *a) {\n\
                   for (int i = 0; i < 3; ++i) { comp += a[i] / x; }\n\
                   comp *= 3.0;\n\
                   }";
        let inputs = InputSet::new()
            .with("x", InputValue::Fp(3.0))
            .with("a", InputValue::FpArray(vec![1.0, 0.1, 7.25]));
        assert_vm_matches_interp(src, &inputs);
    }

    #[test]
    fn subnormal_flushing_and_fastmath_match() {
        let src = "void compute(double x, double y) { comp = x * 0.5; comp += x / y; }";
        let inputs = InputSet::new()
            .with("x", InputValue::Fp(f64::MIN_POSITIVE))
            .with("y", InputValue::Fp(3.0));
        assert_vm_matches_interp(src, &inputs);
    }

    #[test]
    fn special_values_propagate_identically() {
        let src = "void compute(double x) { comp = x / (x - x); comp += sqrt(0.0 - x); }";
        let inputs = InputSet::new().with("x", InputValue::Fp(2.0));
        assert_vm_matches_interp(src, &inputs);
    }

    #[test]
    fn missing_inputs_error_in_parameter_order() {
        let src = "void compute(double x, double y) { comp = x + y; }";
        let program = parse_compute(src).unwrap();
        let artifact =
            compile(&program, CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma)).unwrap();
        let sealed = artifact.seal().unwrap();
        let only_y = InputSet::new().with("y", InputValue::Fp(1.0));
        assert_eq!(sealed.execute(&only_y).unwrap_err(), ExecError::MissingInput("x".into()));
        assert_eq!(sealed.execute(&only_y), artifact.execute(&only_y));
    }

    #[test]
    fn scratch_reuse_is_bit_stable_across_runs() {
        let src = "void compute(double x, double *a) {\n\
                   for (int i = 0; i < 8; ++i) { comp += a[i % 4] * cos(x + i); }\n\
                   }";
        let program = parse_compute(src).unwrap();
        let artifact =
            compile(&program, CompilerConfig::new(CompilerId::Nvcc, OptLevel::O3Fastmath)).unwrap();
        let sealed = artifact.seal().unwrap();
        let mut scratch = ExecScratch::new();
        for k in 0..10 {
            let inputs = InputSet::new()
                .with("x", InputValue::Fp(0.1 * k as f64))
                .with("a", InputValue::FpArray(vec![1.0, -2.0, 3.0, -4.0]));
            let fresh = sealed.execute(&inputs).unwrap();
            let reused = sealed.execute_into(&inputs, DEFAULT_FUEL, &mut scratch).unwrap();
            assert_eq!(fresh.bits(), reused.bits());
            assert_eq!(fresh.steps, reused.steps);
            assert_eq!(artifact.execute(&inputs).unwrap().bits(), reused.bits());
        }
    }

    #[test]
    fn dynamically_ambiguous_names_refuse_to_seal() {
        // `t` is a loop variable in one scope and a scalar assignment
        // target in another; the interpreter resolves reads of `t`
        // dynamically, so sealing must refuse and let callers fall back.
        let src = "void compute(double x) {\n\
                   for (int t = 0; t < 3; ++t) { comp += x * t; }\n\
                   double t = 2.0;\n\
                   comp += t;\n\
                   }";
        let program = parse_compute(src).unwrap();
        let artifact =
            compile(&program, CompilerConfig::new(CompilerId::Gcc, OptLevel::O0)).unwrap();
        match artifact.seal() {
            Err(SealError::AmbiguousName(name)) => assert_eq!(name, "t"),
            other => panic!("expected ambiguity refusal, got {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_points_match_in_deep_loops() {
        let src = "void compute(double x) {\n\
                   for (int i = 0; i < 20; ++i) {\n\
                     for (int j = 0; j < 20; ++j) { comp += x; }\n\
                   }\n\
                   }";
        let program = parse_compute(src).unwrap();
        let artifact =
            compile(&program, CompilerConfig::new(CompilerId::Clang, OptLevel::O2)).unwrap();
        let sealed = artifact.seal().unwrap();
        let inputs = InputSet::new().with("x", InputValue::Fp(1.0));
        let total = sealed.execute(&inputs).unwrap().steps;
        let mut scratch = ExecScratch::new();
        for fuel in [0, 1, 2, 20, 21, 22, 41, total - 1, total, total + 1] {
            let a = artifact.execute_with_fuel(&inputs, fuel);
            let b = sealed.execute_into(&inputs, fuel, &mut scratch);
            match (&a, &b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.bits(), y.bits());
                    assert_eq!(x.steps, y.steps);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("fuel {fuel}: {other:?}"),
            }
        }
    }
}
