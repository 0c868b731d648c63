//! Site-side observability wiring for the threaded deployment: attach a
//! tracer (latency hub plus optional JSONL trace file) to an engine and
//! answer metrics exposition requests over the normal transport.

use std::path::Path;
use std::sync::Arc;

use miniraid_core::engine::SiteEngine;
use miniraid_core::trace::{SystemClock, TraceSink, Tracer};
use miniraid_obs::json::JsonlSink;
use miniraid_obs::sink::TeeSink;
use miniraid_obs::{expo, HubSnapshot, MetricsHub};

/// Observability state for one running site: the latency hub folded from
/// the engine's event stream, and the JSONL sink (if tracing to a file)
/// so it can be flushed at shutdown.
pub struct SiteObs {
    hub: Arc<MetricsHub>,
    trace: Option<Arc<JsonlSink>>,
}

impl SiteObs {
    /// Install a tracer on `engine` that feeds a fresh [`MetricsHub`],
    /// and — when `trace_path` is given — also appends every event to a
    /// JSONL trace file at that path. Uses the wall clock, so traces from
    /// different sites of one cluster share a timebase.
    pub fn attach(engine: &mut SiteEngine, trace_path: Option<&Path>) -> std::io::Result<SiteObs> {
        let hub = Arc::new(MetricsHub::new());
        let trace = match trace_path {
            Some(path) => Some(Arc::new(JsonlSink::create(path)?)),
            None => None,
        };
        let sink: Arc<dyn TraceSink> = match &trace {
            Some(jsonl) => Arc::new(TeeSink::new(vec![
                hub.clone() as Arc<dyn TraceSink>,
                jsonl.clone() as Arc<dyn TraceSink>,
            ])),
            None => hub.clone(),
        };
        engine.set_tracer(Tracer::new(engine.id(), Arc::new(SystemClock::new()), sink));
        Ok(SiteObs { hub, trace })
    }

    /// The latency hub fed by this site's tracer.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// Render the Prometheus-style exposition text for this site,
    /// status gauges (`miniraid_site_up`, `miniraid_site_session`,
    /// `miniraid_recovery_faillocks_outstanding`) first so a live health
    /// view can tell a down site from a live one and watch a recovery
    /// drain.
    pub fn render(&self, engine: &SiteEngine) -> String {
        render(engine, Some(&self.hub.snapshot()))
    }

    /// Flush the JSONL trace file, if any.
    pub fn flush(&self) {
        if let Some(trace) = &self.trace {
            let _ = trace.flush();
        }
    }
}

/// Exposition text for a site with no tracer attached: engine counters
/// only, no latency histograms.
pub fn render_plain(engine: &SiteEngine) -> String {
    render(engine, None)
}

fn render(engine: &SiteEngine, hub: Option<&HubSnapshot>) -> String {
    expo::render_with_status(
        engine.id(),
        engine.is_up(),
        engine.session().0,
        engine.own_stale_count(),
        engine.metrics(),
        hub,
    )
}
