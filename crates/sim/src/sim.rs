//! The simulation driver: wires machines, customer agents, and the pool
//! manager onto the event queue and pumps events.

use crate::ctx::Ctx;
use crate::customer::CustomerAgent;
use crate::engine::{EventQueue, SimTime};
use crate::gangca::GangCustomerAgent;
use crate::license::LicenseAgent;
use crate::machine::MachineAgent;
use crate::manager::ManagerNode;
use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::types::{Event, NodeId};
use rand::rngs::SmallRng;
use std::collections::HashMap;

/// A node in the simulated pool.
///
/// Variants differ widely in size (a ManagerNode embeds an ad store); the
/// vector of nodes is small and long-lived, so boxing would only add
/// indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Node {
    /// A workstation with its Resource-owner Agent.
    Machine(MachineAgent),
    /// A user's Customer Agent.
    Customer(CustomerAgent),
    /// The pool manager (matchmaker).
    Manager(ManagerNode),
    /// A license-seat provider.
    License(LicenseAgent),
    /// A gang (co-allocation) customer agent.
    GangCustomer(GangCustomerAgent),
    /// Placeholder while a node is being dispatched.
    Vacant,
}

/// A running simulation.
#[derive(Debug)]
pub struct Simulation {
    queue: EventQueue<Event>,
    nodes: Vec<Node>,
    directory: HashMap<String, NodeId>,
    network: NetworkModel,
    rng: SmallRng,
    metrics: Metrics,
    manager_id: NodeId,
    total_jobs: u64,
}

impl Simulation {
    /// Assemble a simulation from already-constructed nodes. Use
    /// [`crate::scenario::Scenario::build`] for the common case.
    pub fn assemble(
        manager: ManagerNode,
        machines: Vec<MachineAgent>,
        customers: Vec<CustomerAgent>,
        network: NetworkModel,
        rng: SmallRng,
        total_jobs: u64,
        initially_present: Vec<bool>,
    ) -> Simulation {
        Simulation::assemble_full(
            manager,
            machines,
            customers,
            Vec::new(),
            Vec::new(),
            network,
            rng,
            total_jobs,
            initially_present,
        )
    }

    /// Assemble a simulation including license providers and gang
    /// customers.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_full(
        manager: ManagerNode,
        machines: Vec<MachineAgent>,
        customers: Vec<CustomerAgent>,
        licenses: Vec<LicenseAgent>,
        gang_customers: Vec<GangCustomerAgent>,
        network: NetworkModel,
        rng: SmallRng,
        total_jobs: u64,
        initially_present: Vec<bool>,
    ) -> Simulation {
        let manager_id = manager.id;
        let mut directory = HashMap::new();
        let mut nodes: Vec<Node> = Vec::with_capacity(
            1 + machines.len() + customers.len() + licenses.len() + gang_customers.len(),
        );
        nodes.push(Node::Manager(manager));
        for m in machines {
            directory.insert(m.contact.clone(), m.id);
            nodes.push(Node::Machine(m));
        }
        for c in customers {
            directory.insert(c.contact.clone(), c.id);
            nodes.push(Node::Customer(c));
        }
        for l in licenses {
            directory.insert(l.contact.clone(), l.id);
            nodes.push(Node::License(l));
        }
        for g in gang_customers {
            directory.insert(g.contact.clone(), g.id);
            nodes.push(Node::GangCustomer(g));
        }
        let mut sim = Simulation {
            queue: EventQueue::new(),
            nodes,
            directory,
            network,
            rng,
            metrics: Metrics::default(),
            manager_id,
            total_jobs,
        };
        sim.start_all(initially_present);
        sim
    }

    fn start_all(&mut self, initially_present: Vec<bool>) {
        let n = self.nodes.len();
        let mut machine_idx = 0;
        for id in 0..n {
            let mut node = std::mem::replace(&mut self.nodes[id], Node::Vacant);
            {
                let mut ctx = Ctx {
                    now: self.queue.now(),
                    rng: &mut self.rng,
                    metrics: &mut self.metrics,
                    directory: &self.directory,
                    queue: &mut self.queue,
                    network: &self.network,
                };
                match &mut node {
                    Node::Manager(m) => m.start(&mut ctx),
                    Node::Machine(m) => {
                        let present = initially_present.get(machine_idx).copied().unwrap_or(false);
                        machine_idx += 1;
                        m.start(present, &mut ctx);
                    }
                    Node::Customer(c) => c.start(&mut ctx),
                    Node::License(l) => l.start(&mut ctx),
                    Node::GangCustomer(g) => g.start(&mut ctx),
                    Node::Vacant => {}
                }
            }
            self.nodes[id] = node;
        }
    }

    /// Current virtual time (ms).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Enable protocol-event tracing (call before running; see
    /// [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.metrics.trace.enable(capacity);
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// The pool-manager node.
    pub fn manager(&self) -> &ManagerNode {
        match &self.nodes[self.manager_id] {
            Node::Manager(m) => m,
            _ => unreachable!("manager id mismatch"),
        }
    }

    /// Iterate the machine agents.
    pub fn machines(&self) -> impl Iterator<Item = &MachineAgent> {
        self.nodes.iter().filter_map(|n| match n {
            Node::Machine(m) => Some(m),
            _ => None,
        })
    }

    /// Iterate the customer agents.
    pub fn customers(&self) -> impl Iterator<Item = &CustomerAgent> {
        self.nodes.iter().filter_map(|n| match n {
            Node::Customer(c) => Some(c),
            _ => None,
        })
    }

    /// Total incomplete gangs across all gang customer agents.
    pub fn nodes_gang_incomplete(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::GangCustomer(g) => Some(g.incomplete()),
                _ => None,
            })
            .sum()
    }

    /// Number of license seats currently claimed.
    pub fn licenses_claimed(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::License(l) if l.is_claimed()))
            .count()
    }

    /// Have all expected jobs completed?
    pub fn drained(&self) -> bool {
        self.total_jobs > 0 && self.metrics.jobs_completed >= self.total_jobs
    }

    fn step(&mut self) -> bool {
        let Some((_, ev)) = self.queue.pop() else {
            return false;
        };
        let (id, work) = match ev {
            Event::Deliver { to, msg } => (to, Work::Msg(msg)),
            Event::Machine { node, tag } => (node, Work::MachineTimer(tag)),
            Event::Customer { node, tag } => (node, Work::CustomerTimer(tag)),
            Event::Manager { node, tag } => (node, Work::ManagerTimer(tag)),
            Event::License { node, tag } => (node, Work::LicenseTimer(tag)),
            Event::GangCustomer { node, tag } => (node, Work::GangTimer(tag)),
        };
        if id >= self.nodes.len() {
            return true; // dangling address: drop
        }
        let mut node = std::mem::replace(&mut self.nodes[id], Node::Vacant);
        {
            let mut ctx = Ctx {
                now: self.queue.now(),
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                directory: &self.directory,
                queue: &mut self.queue,
                network: &self.network,
            };
            match (&mut node, work) {
                (Node::Machine(m), Work::Msg(msg)) => m.on_message(msg, &mut ctx),
                (Node::Machine(m), Work::MachineTimer(t)) => m.on_timer(t, &mut ctx),
                (Node::Customer(c), Work::Msg(msg)) => c.on_message(msg, &mut ctx),
                (Node::Customer(c), Work::CustomerTimer(t)) => c.on_timer(t, &mut ctx),
                (Node::Manager(m), Work::Msg(msg)) => m.on_message(msg, &mut ctx),
                (Node::Manager(m), Work::ManagerTimer(t)) => m.on_timer(t, &mut ctx),
                (Node::License(l), Work::Msg(msg)) => l.on_message(msg, &mut ctx),
                (Node::License(l), Work::LicenseTimer(t)) => l.on_timer(t, &mut ctx),
                (Node::GangCustomer(g), Work::Msg(msg)) => g.on_message(msg, &mut ctx),
                (Node::GangCustomer(g), Work::GangTimer(t)) => g.on_timer(t, &mut ctx),
                // Mis-addressed timers/messages are dropped.
                _ => {}
            }
        }
        self.nodes[id] = node;
        true
    }

    /// Run until the virtual clock would pass `until` (exclusive), the
    /// queue drains, or all jobs complete. Returns the number of events
    /// processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let start = self.queue.processed();
        while let Some(t) = self.queue.peek_time() {
            if t > until || self.drained() {
                break;
            }
            self.step();
        }
        self.queue.processed() - start
    }

    /// Keep processing events up to `until` even after all jobs have
    /// completed — lets in-flight teardown traffic (releases, usage
    /// reports) deliver after [`Simulation::run_until`] stopped at the
    /// drain point.
    pub fn flush_until(&mut self, until: SimTime) -> u64 {
        let start = self.queue.processed();
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.queue.processed() - start
    }

    /// Borrow the RNG (e.g. for ad-hoc perturbations in tests).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

enum Work {
    Msg(crate::types::SimMsg),
    MachineTimer(crate::types::MachineTimer),
    CustomerTimer(crate::types::CustomerTimer),
    ManagerTimer(crate::types::ManagerTimer),
    LicenseTimer(crate::types::LicenseTimer),
    GangTimer(crate::types::GangTimer),
}
