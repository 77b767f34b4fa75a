//! Task scheduler: TCBs, ready queues and two scheduling policies.
//!
//! The paper's deployment challenge (§3.1) leans on exactly this
//! divergence: "FreeRTOS uses `xTaskCreate()` with optional static stacks
//! and tick-driven scheduling, whereas Zephyr uses `k_thread_create()`
//! under fully preemptive scheduling". Both policies are implemented; the
//! OS layer picks one and exposes its own API names on top.
//!
//! Branch variants: 0 create entry, 1 name too long, 2 bad priority,
//! 3 table full, 4 created, 5 delete ok, 6 delete bad handle, 7 suspend,
//! 8 resume, 9 tick round-robin rotation, 10 tick preempt switch,
//! 11 priority change causes switch, 12 delay blocks task, 13 unblock.

use crate::ctx::ExecCtx;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// FreeRTOS-style: same-priority tasks rotate on the tick.
    TickRoundRobin,
    /// Zephyr-style: highest priority always runs; ties run to block.
    Preemptive,
}

/// Task lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Eligible to run.
    Ready,
    /// Currently running.
    Running,
    /// Suspended by API.
    Suspended,
    /// Blocked on a delay until the stored tick.
    Delayed(u64),
}

/// Scheduler failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// Task name exceeds the OS's name field.
    NameTooLong,
    /// Priority outside the configured range.
    BadPriority,
    /// TCB table is full.
    TooManyTasks,
    /// Handle does not name a live task.
    BadHandle,
    /// Stack size below the OS minimum.
    StackTooSmall,
}

/// A task control block.
#[derive(Debug, Clone)]
pub struct Tcb {
    /// Task handle (index + generation, opaque to callers).
    pub handle: u32,
    /// Task name (bounded).
    pub name: String,
    /// Priority (0 = lowest here; OSs map their own conventions).
    pub priority: u8,
    /// Stack size in bytes.
    pub stack: u32,
    /// Current state.
    pub state: TaskState,
    /// Ticks this task has been scheduled.
    pub runtime_ticks: u64,
}

/// The scheduler for one kernel.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: Policy,
    max_tasks: usize,
    max_priority: u8,
    max_name: usize,
    min_stack: u32,
    tasks: Vec<Tcb>,
    tick: u64,
    next_handle: u32,
    context_switches: u64,
    running: Option<u32>,
}

impl Scheduler {
    /// Build a scheduler with the OS's limits.
    pub fn new(
        policy: Policy,
        max_tasks: usize,
        max_priority: u8,
        max_name: usize,
        min_stack: u32,
    ) -> Self {
        Scheduler {
            policy,
            max_tasks,
            max_priority,
            max_name,
            min_stack,
            tasks: Vec::new(),
            tick: 0,
            next_handle: 1,
            context_switches: 0,
            running: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Current tick count.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Total context switches performed.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Handle of the running task.
    pub fn running(&self) -> Option<u32> {
        self.running
    }

    /// Look up a task by handle.
    pub fn task(&self, handle: u32) -> Option<&Tcb> {
        self.tasks.iter().find(|t| t.handle == handle)
    }

    fn task_mut(&mut self, handle: u32) -> Option<&mut Tcb> {
        self.tasks.iter_mut().find(|t| t.handle == handle)
    }

    /// Create a task.
    pub fn create(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        name: &str,
        priority: u8,
        stack: u32,
    ) -> Result<u32, SchedError> {
        ctx.cov_var(site, 0);
        ctx.charge(6);
        if name.len() > self.max_name {
            ctx.cov_var(site, 1);
            return Err(SchedError::NameTooLong);
        }
        if priority > self.max_priority {
            ctx.cov_var(site, 2);
            return Err(SchedError::BadPriority);
        }
        if stack < self.min_stack {
            ctx.cov_var(site, 2);
            return Err(SchedError::StackTooSmall);
        }
        if self.tasks.len() >= self.max_tasks {
            ctx.cov_var(site, 3);
            return Err(SchedError::TooManyTasks);
        }
        ctx.cov_var(site, 4);
        ctx.cov_var(site, 100 + priority as u64);
        ctx.cov_var(site, 200 + (stack as u64 / 512).min(15));
        let handle = self.next_handle;
        self.next_handle += 1;
        self.tasks.push(Tcb {
            handle,
            name: name.to_string(),
            priority,
            stack,
            state: TaskState::Ready,
            runtime_ticks: 0,
        });
        Ok(handle)
    }

    /// Delete a task by handle.
    pub fn delete(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
    ) -> Result<(), SchedError> {
        ctx.charge(4);
        let Some(idx) = self.tasks.iter().position(|t| t.handle == handle) else {
            ctx.cov_var(site, 6);
            return Err(SchedError::BadHandle);
        };
        ctx.cov_var(site, 5);
        if self.running == Some(handle) {
            self.running = None;
        }
        self.tasks.remove(idx);
        Ok(())
    }

    /// Suspend a task.
    pub fn suspend(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
    ) -> Result<(), SchedError> {
        ctx.charge(2);
        if self.running == Some(handle) {
            self.running = None;
        }
        match self.task_mut(handle) {
            Some(t) => {
                ctx.cov_var(site, 7);
                t.state = TaskState::Suspended;
                Ok(())
            }
            None => {
                ctx.cov_var(site, 6);
                Err(SchedError::BadHandle)
            }
        }
    }

    /// Resume a suspended task.
    pub fn resume(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
    ) -> Result<(), SchedError> {
        ctx.charge(2);
        match self.task_mut(handle) {
            Some(t) => {
                ctx.cov_var(site, 8);
                if t.state == TaskState::Suspended {
                    t.state = TaskState::Ready;
                }
                Ok(())
            }
            None => {
                ctx.cov_var(site, 6);
                Err(SchedError::BadHandle)
            }
        }
    }

    /// Change a task's priority.
    pub fn set_priority(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        priority: u8,
    ) -> Result<(), SchedError> {
        ctx.charge(2);
        if priority > self.max_priority {
            ctx.cov_var(site, 2);
            return Err(SchedError::BadPriority);
        }
        match self.task_mut(handle) {
            Some(t) => {
                t.priority = priority;
                ctx.cov_var(site, 11);
                Ok(())
            }
            None => {
                ctx.cov_var(site, 6);
                Err(SchedError::BadHandle)
            }
        }
    }

    /// Delay the running (or named) task for `ticks`.
    pub fn delay(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        ticks: u64,
    ) -> Result<(), SchedError> {
        ctx.charge(2);
        // A fuzzed delay can be astronomically large. Real kernels do
        // modular tick arithmetic (FreeRTOS' vTaskDelay wraps its
        // TickType_t), so the deadline wraps too — which in the model
        // means an absurd delay comes due almost immediately rather
        // than parking the task forever.
        let wake = self.tick.wrapping_add(ticks);
        if self.running == Some(handle) {
            self.running = None;
        }
        match self.task_mut(handle) {
            Some(t) => {
                ctx.cov_var(site, 12);
                t.state = TaskState::Delayed(wake);
                Ok(())
            }
            None => {
                ctx.cov_var(site, 6);
                Err(SchedError::BadHandle)
            }
        }
    }

    /// Advance the scheduler one tick: wake expired delays, then pick the
    /// next task to run according to the policy.
    pub fn tick(&mut self, ctx: &mut ExecCtx<'_>, site: &'static str) {
        ctx.charge(3);
        self.tick += 1;
        let now = self.tick;
        for t in &mut self.tasks {
            if let TaskState::Delayed(wake) = t.state {
                if now >= wake {
                    ctx.cov_var(site, 13);
                    t.state = TaskState::Ready;
                }
            }
        }
        // Demote the running task back to ready for the pick.
        let prev = self.running.take();
        if let Some(h) = prev {
            if let Some(t) = self.task_mut(h) {
                if t.state == TaskState::Running {
                    t.state = TaskState::Ready;
                }
            }
        }
        // Pick the highest-priority ready task; round-robin rotates among
        // equals, preemptive sticks with the first.
        let mut best: Option<usize> = None;
        for (i, t) in self.tasks.iter().enumerate() {
            if t.state != TaskState::Ready {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let better = t.priority > self.tasks[b].priority
                        || (t.priority == self.tasks[b].priority
                            && self.policy == Policy::TickRoundRobin
                            && self.tasks[b].handle == prev.unwrap_or(0));
                    if better {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        if let Some(i) = best {
            ctx.cov_var(site, 300 + self.tasks[i].priority as u64);
            let handle = self.tasks[i].handle;
            if prev != Some(handle) {
                self.context_switches += 1;
                ctx.cov_var(
                    site,
                    if self.policy == Policy::TickRoundRobin {
                        9
                    } else {
                        10
                    },
                );
            }
            self.tasks[i].state = TaskState::Running;
            self.tasks[i].runtime_ticks += 1;
            self.running = Some(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CovState;
    use eof_hal::{Bus, Endianness};

    fn with_ctx<R>(f: impl FnOnce(&mut ExecCtx<'_>) -> R) -> R {
        let mut bus = Bus::new(0x2000_0000, 0x1000, Endianness::Little);
        let mut cov = CovState::uninstrumented();
        let mut ctx = ExecCtx::new(&mut bus, &mut cov);
        f(&mut ctx)
    }

    fn sched(policy: Policy) -> Scheduler {
        Scheduler::new(policy, 8, 31, 16, 128)
    }

    #[test]
    fn create_validates_limits() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::TickRoundRobin);
            assert_eq!(
                s.create(ctx, "s", "averyveryverylongname", 1, 256),
                Err(SchedError::NameTooLong)
            );
            assert_eq!(
                s.create(ctx, "s", "t", 99, 256),
                Err(SchedError::BadPriority)
            );
            assert_eq!(
                s.create(ctx, "s", "t", 1, 16),
                Err(SchedError::StackTooSmall)
            );
            let h = s.create(ctx, "s", "t", 1, 256).unwrap();
            assert!(s.task(h).is_some());
        });
    }

    #[test]
    fn table_fills_up() {
        with_ctx(|ctx| {
            let mut s = Scheduler::new(Policy::Preemptive, 2, 31, 16, 128);
            s.create(ctx, "s", "a", 1, 256).unwrap();
            s.create(ctx, "s", "b", 1, 256).unwrap();
            assert_eq!(
                s.create(ctx, "s", "c", 1, 256),
                Err(SchedError::TooManyTasks)
            );
        });
    }

    #[test]
    fn highest_priority_runs() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::Preemptive);
            let lo = s.create(ctx, "s", "lo", 1, 256).unwrap();
            let hi = s.create(ctx, "s", "hi", 5, 256).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(hi));
            s.delete(ctx, "s", hi).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(lo));
        });
    }

    #[test]
    fn round_robin_rotates_equals() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::TickRoundRobin);
            let a = s.create(ctx, "s", "a", 3, 256).unwrap();
            let b = s.create(ctx, "s", "b", 3, 256).unwrap();
            s.tick(ctx, "s");
            let first = s.running().unwrap();
            s.tick(ctx, "s");
            let second = s.running().unwrap();
            assert_ne!(first, second);
            assert!([a, b].contains(&first) && [a, b].contains(&second));
        });
    }

    #[test]
    fn preemptive_does_not_rotate_equals() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::Preemptive);
            s.create(ctx, "s", "a", 3, 256).unwrap();
            s.create(ctx, "s", "b", 3, 256).unwrap();
            s.tick(ctx, "s");
            let first = s.running().unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(first));
        });
    }

    #[test]
    fn delay_blocks_then_wakes() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::Preemptive);
            let t = s.create(ctx, "s", "t", 3, 256).unwrap();
            s.delay(ctx, "s", t, 2).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), None);
            s.tick(ctx, "s");
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(t));
        });
    }

    #[test]
    fn suspend_resume() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::Preemptive);
            let t = s.create(ctx, "s", "t", 3, 256).unwrap();
            s.suspend(ctx, "s", t).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), None);
            s.resume(ctx, "s", t).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(t));
        });
    }

    #[test]
    fn priority_change_takes_effect() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::Preemptive);
            let a = s.create(ctx, "s", "a", 3, 256).unwrap();
            let b = s.create(ctx, "s", "b", 2, 256).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(a));
            s.set_priority(ctx, "s", b, 9).unwrap();
            s.tick(ctx, "s");
            assert_eq!(s.running(), Some(b));
        });
    }

    #[test]
    fn bad_handles_everywhere() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::Preemptive);
            assert_eq!(s.delete(ctx, "s", 77), Err(SchedError::BadHandle));
            assert_eq!(s.suspend(ctx, "s", 77), Err(SchedError::BadHandle));
            assert_eq!(s.resume(ctx, "s", 77), Err(SchedError::BadHandle));
            assert_eq!(s.delay(ctx, "s", 77, 1), Err(SchedError::BadHandle));
        });
    }

    #[test]
    fn context_switch_counter() {
        with_ctx(|ctx| {
            let mut s = sched(Policy::TickRoundRobin);
            s.create(ctx, "s", "a", 3, 256).unwrap();
            s.create(ctx, "s", "b", 3, 256).unwrap();
            for _ in 0..6 {
                s.tick(ctx, "s");
            }
            assert!(s.context_switches() >= 5);
        });
    }
}
