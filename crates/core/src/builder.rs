//! Building a runnable [`App`] from CDL + CCL + registered Rust code.
//!
//! This is the synthesis half of the Compadres compiler: where the paper
//! generates Java glue source, this builder constructs the equivalent
//! runtime structures directly — memory regions and pools, port buffers,
//! thread pools and the routing table.

use std::any::TypeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

use rtmem::{MemoryModel, ScopePool};
use rtobs::Observer;
use rtplatform::atomic::ParkPolicy;
use rtplatform::fault::AdmissionPolicy;
use rtsched::{PoolConfig, Priority, ThreadPool};

use crate::component::{Component, ErasedHandler, MessageHandler, TypedHandler};
use crate::error::{CompadresError, Result};
use crate::message::{AnyPool, Message, MessagePool};
use crate::model::{Ccl, Cdl, PortDirection, ThreadpoolStrategy};
use crate::runtime::{
    new_instance_runtime, App, AppCore, CoreObs, Dispatch, InPortInfo, OutPortInfo,
};
use crate::validate::{validate, InstanceId, ValidatedApp};

/// Lowercases and underscores a CCL name so it can appear inside a
/// Prometheus-style metric name.
fn metric_safe(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Factory creating a type-erased message pool for a bound message type.
type PoolFactory = Arc<dyn Fn(&str, usize) -> Arc<dyn AnyPool> + Send + Sync>;

struct MessageBinding {
    type_id: TypeId,
    rust_type: &'static str,
    make_pool: PoolFactory,
}

struct RegisteredHandler {
    factory: Arc<dyn Fn() -> Box<dyn ErasedHandler> + Send + Sync>,
    message_type_id: TypeId,
}

/// Builder assembling an [`App`] from the declarative CDL/CCL documents
/// and the imperative pieces the programmer supplies: message-type
/// bindings, component factories and message-handler factories.
///
/// # Examples
///
/// See the crate-level docs for a complete client–server example.
pub struct AppBuilder {
    cdl: Cdl,
    ccl: Ccl,
    message_bindings: HashMap<String, MessageBinding>,
    component_factories: HashMap<String, Arc<dyn Fn() -> Box<dyn Component> + Send + Sync>>,
    handler_factories: HashMap<(String, String), RegisteredHandler>,
    heap_size: usize,
    admission: AdmissionPolicy,
    port_admission: HashMap<(String, String), AdmissionPolicy>,
    park_policy: ParkPolicy,
}

impl std::fmt::Debug for AppBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppBuilder")
            .field("application", &self.ccl.application_name)
            .field("classes", &self.cdl.components.len())
            .field("bindings", &self.message_bindings.len())
            .finish()
    }
}

impl AppBuilder {
    /// Starts a builder from already-parsed documents.
    pub fn from_model(cdl: Cdl, ccl: Ccl) -> Self {
        AppBuilder {
            cdl,
            ccl,
            message_bindings: HashMap::new(),
            component_factories: HashMap::new(),
            handler_factories: HashMap::new(),
            heap_size: 4 << 20,
            admission: AdmissionPolicy::disabled(),
            port_admission: HashMap::new(),
            park_policy: ParkPolicy::balanced(),
        }
    }

    /// Starts a builder by parsing CDL and CCL XML sources.
    ///
    /// # Errors
    ///
    /// Parse errors from either document.
    pub fn from_xml(cdl: &str, ccl: &str) -> Result<Self> {
        Ok(Self::from_model(
            crate::parse::parse_cdl(cdl)?,
            crate::parse::parse_ccl(ccl)?,
        ))
    }

    /// Binds the CDL message type `name` to the Rust type `M`
    /// (constructed via `Default` for pooling).
    pub fn bind_message_type<M: Message + Default>(mut self, name: &str) -> Self {
        let make_pool = Arc::new(move |mt: &str, capacity: usize| {
            MessagePool::<M>::new(mt, capacity, M::default, None)
                .expect("unaccounted pool creation cannot fail")
                .as_any_pool()
        });
        self.message_bindings.insert(
            name.to_string(),
            MessageBinding {
                type_id: TypeId::of::<M>(),
                rust_type: std::any::type_name::<M>(),
                make_pool,
            },
        );
        self
    }

    /// Registers the factory for a CDL component class.
    pub fn register_component(
        mut self,
        class: &str,
        factory: impl Fn() -> Box<dyn Component> + Send + Sync + 'static,
    ) -> Self {
        self.component_factories
            .insert(class.to_string(), Arc::new(factory));
        self
    }

    /// Registers the message handler for `class`'s in-port `port`.
    /// `factory` is invoked at every activation of an instance of `class`.
    pub fn register_handler<M, H>(
        mut self,
        class: &str,
        port: &str,
        factory: impl Fn() -> H + Send + Sync + 'static,
    ) -> Self
    where
        M: Message,
        H: MessageHandler<M> + 'static,
    {
        let port_name = port.to_string();
        let message_type = self
            .cdl
            .component(class)
            .and_then(|c| c.port(port))
            .map(|p| p.message_type.clone())
            .unwrap_or_default();
        let erased = Arc::new(move || {
            Box::new(TypedHandler::new(
                factory(),
                port_name.clone(),
                message_type.clone(),
            )) as Box<dyn ErasedHandler>
        });
        self.handler_factories.insert(
            (class.to_string(), port.to_string()),
            RegisteredHandler {
                factory: erased,
                message_type_id: TypeId::of::<M>(),
            },
        );
        self
    }

    /// Registers an **adapter** handler for `class`'s in-port `in_port`:
    /// every incoming `A` is converted by `convert` and forwarded through
    /// `out_port` as a `B` at the same priority.
    ///
    /// This is the paper's mechanism for joining ports of non-matching
    /// message types (§2.2: "adapter components may be introduced to
    /// connect two non-matching types"): declare an adapter component in
    /// the CDL with an `A`-typed in-port and a `B`-typed out-port, place
    /// it between the two components in the CCL, and register the
    /// conversion here.
    pub fn register_adapter<A, B>(
        self,
        class: &str,
        in_port: &str,
        out_port: &str,
        convert: impl Fn(&A) -> B + Send + Sync + Clone + 'static,
    ) -> Self
    where
        A: Message,
        B: Message,
    {
        let out_port = out_port.to_string();
        self.register_handler(class, in_port, move || {
            let out_port = out_port.clone();
            let convert = convert.clone();
            move |msg: &mut A, ctx: &mut crate::runtime::HandlerCtx<'_>| {
                let mut converted = ctx.get_message::<B>(&out_port)?;
                *converted = convert(msg);
                ctx.send(&out_port, converted, ctx.priority())
            }
        })
    }

    /// Overrides the heap region size (default 4 MiB).
    pub fn heap_size(mut self, bytes: usize) -> Self {
        self.heap_size = bytes;
        self
    }

    /// Sets the default priority-band admission policy for every async
    /// in-port buffer. Under overload, occupancy above a band's
    /// watermark sheds that band ([`CompadresError::Shed`]) while slots
    /// stay reserved for higher-priority traffic. The default,
    /// [`AdmissionPolicy::disabled`], admits every band to full
    /// capacity. Override a single port with
    /// [`AppBuilder::port_admission`].
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Overrides the admission policy of one in-port
    /// (`instance`.`port`), taking precedence over the app-wide
    /// [`AppBuilder::admission`] default.
    pub fn port_admission(mut self, instance: &str, port: &str, policy: AdmissionPolicy) -> Self {
        self.port_admission
            .insert((instance.to_string(), port.to_string()), policy);
        self
    }

    /// Tunes the spin/park budget of every dispatch thread pool (how
    /// long idle workers spin before yielding and then parking). The
    /// default, [`ParkPolicy::balanced`], matches the historical
    /// constants; [`ParkPolicy::spin_longer`] trades idle CPU for a
    /// tighter contended tail.
    pub fn park_policy(mut self, policy: ParkPolicy) -> Self {
        self.park_policy = policy;
        self
    }

    /// Validates the composition and constructs the application: memory
    /// regions and scope pools, message pools in the common-ancestor
    /// areas, port buffers, thread pools and the routing table.
    ///
    /// # Errors
    ///
    /// * [`CompadresError::Validation`] — the composition violates a rule.
    /// * [`CompadresError::MissingFactory`] — a connected in-port has no
    ///   registered handler, or a message type on a connection is unbound.
    /// * [`CompadresError::MessageTypeMismatch`] — a registered handler's
    ///   Rust message type disagrees with the port's bound type.
    pub fn build(self) -> Result<App> {
        let vapp: ValidatedApp = validate(&self.cdl, &self.ccl)?;
        let model = MemoryModel::with_sizes(self.heap_size, vapp.rtsj.immortal_size.max(64 << 10));

        // One observability domain for the whole app. The memory model
        // must carry it *before* scope pools are created: pools resolve
        // their observer hook at construction.
        let obs = Observer::new();
        model.set_observer(&obs);

        // Scope pools per level (CCL RTSJAttributes).
        let mut scope_pools = HashMap::new();
        for cfg in &vapp.rtsj.scoped_pools {
            scope_pools.insert(
                cfg.level,
                ScopePool::new(&model, cfg.level, cfg.scope_size, cfg.pool_size)?,
            );
        }

        // Instance runtimes.
        let mut instances = Vec::with_capacity(vapp.instances.len());
        let mut by_name = HashMap::new();
        for vi in &vapp.instances {
            by_name.insert(vi.name.clone(), vi.id);
            instances.push(new_instance_runtime(
                vi.id,
                vi.name.clone(),
                vi.class.clone(),
                vi.kind,
                vi.parent,
            ));
        }

        // In-port infrastructure for connected in-ports. A "Shared" pool is
        // shared among the ports of one instance; "Dedicated" ports get
        // their own.
        let mut in_ports: HashMap<(InstanceId, String), InPortInfo> = HashMap::new();
        let mut shared_pools: HashMap<InstanceId, (Arc<ThreadPool<rtmem::Ctx>>, usize, usize)> =
            HashMap::new();
        // Wire every in-port that can receive messages: connected ports
        // must have a handler; unconnected ports are wired too when a
        // handler is registered (they may be fed externally, e.g. through
        // a remote port exporter or `App::send_to`).
        let connected_in: std::collections::HashSet<(InstanceId, String)> =
            vapp.connections.iter().map(|c| c.to.clone()).collect();
        let mut all_in: Vec<(InstanceId, String)> = Vec::new();
        for vi in &vapp.instances {
            for port in vi.port_attrs.keys() {
                all_in.push((vi.id, port.clone()));
            }
        }
        for key in &all_in {
            if in_ports.contains_key(key) {
                continue; // fan-in: one in-port, several connections
            }
            let vi = &vapp.instances[key.0 .0];
            let class = self.cdl.component(&vi.class).expect("validated");
            let port_def = class.port(&key.1).expect("validated");
            debug_assert_eq!(port_def.direction, PortDirection::In);
            let attrs = vi.port_attrs[&key.1];
            let registered = self
                .handler_factories
                .get(&(vi.class.clone(), key.1.clone()));
            let reg = match (registered, connected_in.contains(key)) {
                (Some(reg), _) => reg,
                // Connected ports must have a handler…
                (None, true) => {
                    return Err(CompadresError::MissingFactory {
                        class: vi.class.clone(),
                        port: Some(key.1.clone()),
                    })
                }
                // …unconnected, unhandled ports stay unwired (warned).
                (None, false) => continue,
            };
            let binding = self
                .message_bindings
                .get(&port_def.message_type)
                .ok_or_else(|| {
                    CompadresError::Validation(format!(
                    "message type {:?} used by {}.{} has no Rust binding; call bind_message_type",
                    port_def.message_type, vi.name, key.1
                ))
                })?;
            if reg.message_type_id != binding.type_id {
                return Err(CompadresError::MessageTypeMismatch {
                    port: format!("{}.{}", vi.name, key.1),
                    expected: format!("{} (bound to {})", port_def.message_type, binding.rust_type),
                });
            }

            let dispatch = if attrs.is_synchronous() {
                Dispatch::Synchronous
            } else {
                let pool = match attrs.strategy {
                    ThreadpoolStrategy::Dedicated => {
                        let m = model.clone();
                        let pool = Arc::new(ThreadPool::new(
                            PoolConfig {
                                min_threads: attrs.min_threads.max(1),
                                max_threads: attrs.max_threads.max(1),
                                idle_priority: Priority::MIN,
                                park: self.park_policy,
                            },
                            move || rtmem::Ctx::no_heap(&m),
                        ));
                        pool.set_observer(&obs, &metric_safe(&format!("{}_{}", vi.name, key.1)));
                        pool
                    }
                    _ => {
                        // Shared (or default): one pool per instance.
                        match shared_pools.get(&key.0) {
                            Some((pool, _, _)) => Arc::clone(pool),
                            None => {
                                let m = model.clone();
                                let pool = Arc::new(ThreadPool::new(
                                    PoolConfig {
                                        min_threads: attrs.min_threads.max(1),
                                        max_threads: attrs.max_threads.max(1),
                                        idle_priority: Priority::MIN,
                                        park: self.park_policy,
                                    },
                                    move || rtmem::Ctx::no_heap(&m),
                                ));
                                pool.set_observer(&obs, &metric_safe(&vi.name));
                                shared_pools.insert(
                                    key.0,
                                    (Arc::clone(&pool), attrs.min_threads, attrs.max_threads),
                                );
                                pool
                            }
                        }
                    }
                };
                Dispatch::Async {
                    pool,
                    inflight: Arc::new(AtomicUsize::new(0)),
                    pending: Arc::new(AtomicUsize::new(0)),
                    buffer_size: attrs.buffer_size,
                    admission: self
                        .port_admission
                        .get(&(vi.name.clone(), key.1.clone()))
                        .copied()
                        .unwrap_or(self.admission),
                }
            };
            in_ports.insert(
                key.clone(),
                InPortInfo {
                    message_type: port_def.message_type.clone(),
                    type_id: binding.type_id,
                    dispatch,
                    attrs,
                    entity: obs.register_entity(&format!("{}.{}", vi.name, key.1)),
                    deadline_miss: obs.counter(&format!(
                        "compadres_deadline_miss_{}_total",
                        metric_safe(&format!("{}_{}", vi.name, key.1))
                    )),
                    shed: obs.counter(&format!(
                        "compadres_shed_{}_total",
                        metric_safe(&format!("{}_{}", vi.name, key.1))
                    )),
                },
            );
        }

        // Out-port routing + message pools in the common-ancestor area.
        let mut out_ports: HashMap<(InstanceId, String), OutPortInfo> = HashMap::new();
        for conn in &vapp.connections {
            let from = conn.from.clone();
            let entry = out_ports.entry(from.clone());
            match entry {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().targets.push(conn.to.clone());
                    e.get_mut().kind.push(conn.kind);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let binding =
                        self.message_bindings
                            .get(&conn.message_type)
                            .ok_or_else(|| {
                                CompadresError::Validation(format!(
                                    "message type {:?} on connection has no Rust binding",
                                    conn.message_type
                                ))
                            })?;
                    // Pool capacity: enough for every target buffer plus
                    // slack for in-preparation messages.
                    let cap: usize = vapp
                        .connections
                        .iter()
                        .filter(|c| c.from == from)
                        .map(|c| {
                            vapp.instances[c.to.0 .0]
                                .port_attrs
                                .get(&c.to.1)
                                .map(|a| a.buffer_size)
                                .unwrap_or(16)
                        })
                        .sum::<usize>()
                        .max(4)
                        + 2;
                    let pool = (binding.make_pool)(&conn.message_type, cap);
                    v.insert(OutPortInfo {
                        message_type: conn.message_type.clone(),
                        type_id: binding.type_id,
                        pool,
                        targets: vec![conn.to.clone()],
                        kind: vec![conn.kind],
                    });
                }
            }
        }

        let core = AppCore {
            model,
            name: vapp.name.clone(),
            instances,
            by_name,
            out_ports,
            in_ports,
            scope_pools,
            component_factories: self.component_factories,
            handler_factories: self
                .handler_factories
                .into_iter()
                .map(|(k, v)| (k, v.factory))
                .collect(),
            stats: CoreObs::new(obs),
            shutdown: AtomicBool::new(false),
            validated: vapp,
        };
        Ok(App {
            core: Arc::new(core),
        })
    }

    /// Validates without building; returns warnings.
    ///
    /// # Errors
    ///
    /// Same as [`AppBuilder::build`]'s validation stage.
    pub fn check(&self) -> Result<Vec<String>> {
        Ok(validate(&self.cdl, &self.ccl)?.warnings)
    }
}
