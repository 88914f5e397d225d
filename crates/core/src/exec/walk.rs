//! One plan's walk over numbered slots: the plan compiled for the run,
//! one frame of slots with a trail of what was bound, and the open steps.

use super::{Answers, IncompleteReason, SubgoalProvenance};
use crate::plan::{Plan, PlanStep};
use hermes_common::{GroundCall, HermesError, Result, SimDuration, SimInstant, Value};
use hermes_lang::{Condition, Relop, Term};
use std::fmt::Write;
use std::sync::Arc;

/// A constant term's slot, and a step's provenance entry when it is not
/// a call.
const NONE: u32 = u32::MAX;

/// Compiles `plan` for one run: each variable gets one slot number, the
/// answer variables `0..n` in answer order and the rest in order of first
/// appearance ([`Plan::variables`]), so an answer row is slots `0..n`.
/// Returns, in one allocation, per step where its terms start (then where
/// they end), per step a call's entry in the run's provenance, and per
/// term of every step, in step order ([`PlanStep::terms`]), its slot; and
/// the number of slots.
fn compile(plan: &Plan) -> (Vec<u32>, usize) {
    let steps = plan.steps.len();
    let terms = || plan.steps.iter().flat_map(PlanStep::terms);
    let mut code = Vec::with_capacity(2 * steps + 1 + terms().count());
    code.push(0);
    for step in &plan.steps {
        code.push(code[code.len() - 1] + step.terms().count() as u32);
    }
    let mut calls = 0;
    for step in &plan.steps {
        code.push(if step.is_call() { calls } else { NONE });
        calls += u32::from(step.is_call());
    }
    let (base, mut slots) = (code.len(), plan.answer_vars.len() as u32);
    let same = |a: &Arc<str>, b: &Arc<str>| Arc::ptr_eq(a, b) || a == b;
    for (p, t) in terms().enumerate() {
        let slot = t.as_var().map(|v| {
            let answer = plan.answer_vars.iter().position(|a| same(a, v));
            let earlier = || {
                terms()
                    .take(p)
                    .position(|u| u.as_var().is_some_and(|u| same(u, v)))
            };
            match (answer, earlier()) {
                (Some(k), _) => k as u32,
                (None, Some(q)) => code[base + q],
                (None, None) => {
                    slots += 1;
                    slots - 1
                }
            }
        });
        code.push(slot.unwrap_or(NONE));
    }
    (code, slots as usize)
}

/// What a slot holds.
#[derive(Clone)]
enum Slot {
    Free,
    /// Column `.1` of the current row of the open frame at depth `.0` (a
    /// call's answer is a row of one): the value stays where it is.
    Frame(u32, u32),
    /// A value a condition assigned.
    Value(Value),
}

/// One open step of the walk: its rows from `next` on, and the trail's
/// length when it opened (`mark`), so taking a row first unbinds what the
/// rows before it bound.
pub(super) struct Frame {
    pub(super) idx: usize,
    pub(super) mark: usize,
    pub(super) next: usize,
    /// A call whose target was ground when it opened: its first equal
    /// answer continues the walk and ends the frame, so the rest are
    /// neither scanned nor charged.
    pub(super) probe: bool,
    /// A call's answers; `None` for a fact step's rows.
    pub(super) answers: Option<Answers>,
}

impl Frame {
    /// The number of rows.
    pub(super) fn len(&self, plan: &Plan) -> usize {
        match &self.answers {
            Some(answers) => answers.list.len(),
            None => fact_rows(plan, self.idx).len(),
        }
    }

    /// Column `col` of the current row.
    fn current<'a>(&'a self, plan: &'a Plan, col: u32) -> Option<&'a Value> {
        match &self.answers {
            Some(answers) => answers.list.get(self.next - 1),
            None => fact_rows(plan, self.idx)[self.next - 1].get(col as usize),
        }
    }
}

fn fact_rows(plan: &Plan, idx: usize) -> &[Vec<Value>] {
    match &plan.steps[idx] {
        PlanStep::Facts { rows, .. } => rows,
        _ => unreachable!("a fact frame opens on a fact step"),
    }
}

/// One plan's nested-loops walk, paused between answers: the slots, the
/// open steps, innermost last, and what the run has gathered so far.
pub(crate) struct Walk {
    /// The plan compiled for the run ([`compile`]), of `steps` steps.
    code: Vec<u32>,
    steps: usize,
    /// Per slot, what it holds; beside it, the trail: the slots bound so
    /// far, in binding order (a slot is on it at most once).
    slots: Vec<(Slot, u32)>,
    trail: usize,
    pub(super) frames: Vec<Frame>,
    /// The step to enter next.
    pub(super) enter: Option<usize>,
    /// Answers handed out so far.
    pub(super) answers: usize,
    pub(super) t_first: Option<SimDuration>,
    pub(super) start: SimInstant,
    /// One entry per call step of the plan, in step order: a run is
    /// incomplete when any has a gap.
    pub(super) provenance: Vec<SubgoalProvenance>,
}

impl Walk {
    /// A walk of `plan` from its first step, started at `start`.
    pub(super) fn new(plan: &Plan, start: SimInstant) -> Walk {
        let provenance = plan
            .steps
            .iter()
            .filter_map(|step| match step {
                PlanStep::Call { call, .. } => {
                    // Room for a usual call's text, so rendering it does
                    // not regrow the string.
                    let mut subgoal = String::with_capacity(64);
                    write!(subgoal, "{call}").expect("a String takes any write");
                    Some(SubgoalProvenance {
                        subgoal,
                        gaps: Vec::new(),
                    })
                }
                _ => None,
            })
            .collect();
        let (code, slots) = compile(plan);
        Walk {
            code,
            steps: plan.steps.len(),
            slots: vec![(Slot::Free, NONE); slots],
            trail: 0,
            frames: Vec::new(),
            enter: Some(0),
            answers: 0,
            t_first: None,
            start,
            provenance,
        }
    }

    /// Records a completeness gap against the call step at `idx`
    /// (deduplicated).
    pub(super) fn mark_gap(&mut self, idx: usize, reason: IncompleteReason) {
        let prov = self.code[self.steps + 1 + idx];
        if let Some(entry) = self.provenance.get_mut(prov as usize) {
            if !entry.gaps.contains(&reason) {
                entry.gaps.push(reason);
            }
        }
    }

    /// Opens a frame on step `idx`: a call's `answers`, or a fact step's
    /// rows.
    pub(super) fn open(&mut self, idx: usize, probe: bool, answers: Option<Answers>) {
        let mark = self.trail;
        self.frames.push(Frame {
            idx,
            mark,
            next: 0,
            probe,
            answers,
        });
    }

    /// The slots of step `idx`'s terms.
    fn terms(&self, idx: usize) -> &[u32] {
        let base = 2 * self.steps + 1;
        &self.code[base + self.code[idx] as usize..base + self.code[idx + 1] as usize]
    }

    /// Unbinds every slot bound after the trail was `mark` long.
    pub(super) fn undo(&mut self, mark: usize) {
        for i in mark..self.trail {
            let slot = self.slots[i].1 as usize;
            self.slots[slot].0 = Slot::Free;
        }
        self.trail = mark;
    }

    fn bind(&mut self, slot: u32, to: Slot) {
        self.slots[slot as usize].0 = to;
        self.slots[self.trail].1 = slot;
        self.trail += 1;
    }

    /// The value in `slot`, if bound.
    fn get<'a>(&'a self, plan: &'a Plan, slot: u32) -> Option<&'a Value> {
        match &self.slots[slot as usize].0 {
            Slot::Free => None,
            Slot::Value(v) => Some(v),
            Slot::Frame(depth, col) => self.frames[*depth as usize].current(plan, *col),
        }
    }

    /// The value of the term `t` whose slot is `slot`, if ground.
    fn value<'a>(&'a self, plan: &'a Plan, t: &'a Term, slot: u32) -> Option<&'a Value> {
        match t {
            Term::Const(c) => Some(c),
            Term::Var(_) => self.get(plan, slot),
        }
    }

    /// The answer row: the answer slots' values, `Null` where unbound.
    pub(super) fn row(&self, plan: &Plan) -> Vec<Value> {
        (0..plan.answer_vars.len() as u32)
            .map(|slot| self.get(plan, slot).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// The call step at `idx` grounded in the slots, and whether its
    /// target is ground (a membership probe); `None` while an argument is
    /// unbound.
    pub(super) fn ground(&self, plan: &Plan, idx: usize) -> Option<(GroundCall, bool)> {
        let PlanStep::Call { call, target, .. } = &plan.steps[idx] else {
            return None;
        };
        let (slots, value) = (self.terms(idx), |t, s| self.value(plan, t, s));
        let args = || call.args.iter().zip(&slots[1..]);
        if args().any(|(t, &slot)| value(t, slot).is_none()) {
            return None;
        }
        let args: Arc<[Value]> = args()
            .map(|(t, &slot)| value(t, slot).cloned().unwrap_or(Value::Null))
            .collect();
        let probe = value(target, slots[0]).is_some();
        let ground = GroundCall::new(call.domain.clone(), call.function.clone(), args);
        Some((ground, probe))
    }

    /// Runs the condition `c` of step `idx`: a filter when both sides are
    /// ground, an assignment (bound in place, on the trail) when one side
    /// is an unbound bare variable under `=`. `false` when the filter
    /// rejects.
    pub(super) fn holds(&mut self, plan: &Plan, idx: usize, c: &Condition) -> Result<bool> {
        let &[l, r] = self.terms(idx) else {
            unreachable!("a condition has two operands");
        };
        let lhs = self
            .value(plan, &c.lhs.base, l)
            .and_then(|v| c.lhs.path.resolve(v));
        let rhs = self
            .value(plan, &c.rhs.base, r)
            .and_then(|v| c.rhs.path.resolve(v));
        let (slot, value) = match (lhs, rhs) {
            (Some(a), Some(b)) => return Ok(c.op.eval(a, b)),
            (Some(v), None) if c.op == Relop::Eq && c.rhs.path.is_empty() => (r, v.clone()),
            (None, Some(v)) if c.op == Relop::Eq && c.lhs.path.is_empty() => (l, v.clone()),
            _ => {
                return Err(HermesError::Eval(format!(
                    "condition `{c}` has unbound operands at execution \
                     (planner bug or malformed plan)"
                )))
            }
        };
        self.bind(slot, Slot::Value(value));
        Ok(true)
    }

    /// Takes the next row of the frame on top: unbinds what the rows
    /// before it bound, then matches the row with the step's outputs (a
    /// call's target, a fact step's arguments), binding the free ones to
    /// it in place. A probe that matches closes its frame. `false` on a
    /// clash.
    pub(super) fn advance(&mut self, plan: &Plan) -> bool {
        let top = self.frames.len() - 1;
        let (idx, probe) = (self.frames[top].idx, self.frames[top].probe);
        self.frames[top].next += 1;
        self.undo(self.frames[top].mark);
        let outputs = match &plan.steps[idx] {
            PlanStep::Call { target, .. } => std::slice::from_ref(target),
            PlanStep::Facts { args, .. } => &args[..],
            PlanStep::Cond(_) => unreachable!("a condition opens no frame"),
        };
        for (col, t) in outputs.iter().enumerate() {
            let (slot, col) = (self.terms(idx)[col], col as u32);
            let row = self.frames[top].current(plan, col);
            match self.value(plan, t, slot) {
                Some(bound) if Some(bound) != row => return false,
                Some(_) => {}
                None => self.bind(slot, Slot::Frame(top as u32, col)),
            }
        }
        if probe {
            self.frames.pop();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, Executor};
    use hermes_cim::ShardedCim;
    use hermes_common::SimClock;
    use hermes_dcsm::ShardedDcsm;
    use hermes_lang::PathTerm;
    use hermes_net::Network;

    fn int_rows(rows: &[[i64; 2]]) -> Arc<Vec<Vec<Value>>> {
        Arc::new(rows.iter().map(|r| r.map(Value::Int).to_vec()).collect())
    }

    /// `e(X, Y) & e(Y, Z) & =(W, Z)` over a three-edge path, answering
    /// `[X, W]`: two fact frames, a join on `Y`, a local `Z` and an
    /// assignment.
    fn path_plan() -> Plan {
        let edges = int_rows(&[[1, 2], [2, 3], [3, 4]]);
        let facts = |a: &str, b: &str| PlanStep::Facts {
            pred: Arc::from("e"),
            args: vec![Term::var(a), Term::var(b)],
            rows: edges.clone(),
        };
        let assign = Condition::new(
            Relop::Eq,
            PathTerm::bare(Term::var("W")),
            PathTerm::bare(Term::var("Z")),
        );
        Plan {
            steps: vec![facts("X", "Y"), facts("Y", "Z"), PlanStep::Cond(assign)],
            answer_vars: [Arc::from("X"), Arc::from("W")].into(),
        }
    }

    #[test]
    fn slots_number_the_plan_variables_in_one_order() {
        let plan = path_plan();
        let (code, slots) = compile(&plan);
        let names = plan.variables();
        assert_eq!(names, ["X", "W", "Y", "Z"]);
        assert_eq!(slots, names.len());
        let base = 2 * plan.steps.len() + 1;
        let terms = plan.steps.iter().flat_map(PlanStep::terms);
        for (t, &slot) in terms.zip(&code[base..]) {
            assert_eq!(names[slot as usize], t.as_var().unwrap().as_ref());
        }
    }

    #[test]
    fn a_drained_walk_leaves_every_slot_unbound() {
        let (net, cim, dcsm) = (Network::new(1), ShardedCim::new(1), ShardedDcsm::new(1));
        let mut ex = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default());
        let plan = path_plan();
        let mut walk = ex.start(&plan);
        let mut rows = Vec::new();
        while let Some((row, _)) = ex.next_answer(&plan, &mut walk).unwrap() {
            rows.push(row);
        }
        let want: Vec<Vec<Value>> = [[1, 3], [2, 4]]
            .iter()
            .map(|r| r.map(Value::Int).to_vec())
            .collect();
        assert_eq!(rows, want);
        // Every frame closed, and each undid what it and the steps after
        // it bound.
        assert!(walk.frames.is_empty());
        assert_eq!(walk.trail, 0);
        assert!(walk
            .slots
            .iter()
            .all(|(slot, _)| matches!(slot, Slot::Free)));
    }
}
