//! The unified metrics registry: labeled counters, gauges, and
//! histograms with deterministic iteration order.
//!
//! Every stats surface in the workspace (simulator aggregates, message
//! counters, live-server counters) can publish into one [`Registry`],
//! which the exporters then dump as CSV/JSON. Series are keyed by name
//! plus sorted `label=value` pairs, so two registries built from the
//! same data serialize byte-identically.

use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// A series key: metric name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    Key {
        name: name.to_string(),
        labels,
    }
}

/// One exported value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Distribution summary.
    Summary {
        /// Number of samples.
        count: u64,
        /// Sample mean.
        mean: f64,
        /// Median estimate.
        p50: f64,
        /// 99th-percentile estimate.
        p99: f64,
        /// Largest sample.
        max: f64,
    },
}

/// One metric series, flattened for export.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Metric name, e.g. `press_msg_count`.
    pub name: String,
    /// Sorted `label=value` pairs, e.g. `[("node","3"),("type","load")]`.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// The registry: counters, gauges, and histograms under labeled names.
///
/// # Example
///
/// ```
/// use press_telem::Registry;
///
/// let mut reg = Registry::default();
/// reg.inc("requests", &[("node", "0")], 3);
/// reg.set_gauge("cpu_util", &[("node", "0")], 0.42);
/// reg.observe("resp_ms", &[], 12.5);
/// let records = reg.records();
/// assert_eq!(records.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// Adds `delta` to a counter series.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let c = self.counters.entry(key(name, labels)).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Sets a gauge series.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(key(name, labels), value);
    }

    /// Records a sample into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], sample: f64) {
        self.hists
            .entry(key(name, labels))
            .or_default()
            .record(sample);
    }

    /// Merges another registry into this one (counters add, gauges take
    /// the other's value, histograms merge).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Flattens every series, in deterministic order (counters, then
    /// gauges, then histogram summaries; each name/label-sorted).
    pub fn records(&self) -> Vec<MetricRecord> {
        let mut out = Vec::new();
        for (k, v) in &self.counters {
            out.push(MetricRecord {
                name: k.name.clone(),
                labels: k.labels.clone(),
                value: MetricValue::Counter(*v),
            });
        }
        for (k, v) in &self.gauges {
            out.push(MetricRecord {
                name: k.name.clone(),
                labels: k.labels.clone(),
                value: MetricValue::Gauge(*v),
            });
        }
        for (k, h) in &self.hists {
            out.push(MetricRecord {
                name: k.name.clone(),
                labels: k.labels.clone(),
                value: MetricValue::Summary {
                    count: h.count(),
                    mean: h.mean(),
                    p50: if h.count() == 0 {
                        0.0
                    } else {
                        h.percentile(50.0)
                    },
                    p99: if h.count() == 0 {
                        0.0
                    } else {
                        h.percentile(99.0)
                    },
                    max: h.max(),
                },
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_order_insensitive() {
        let mut reg = Registry::default();
        reg.inc("m", &[("b", "2"), ("a", "1")], 1);
        reg.inc("m", &[("a", "1"), ("b", "2")], 2);
        let recs = reg.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value, MetricValue::Counter(3));
        assert_eq!(
            recs[0].labels,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string())
            ]
        );
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = Registry::default();
        a.inc("c", &[], 1);
        a.observe("h", &[], 1.0);
        let mut b = Registry::default();
        b.inc("c", &[], 2);
        b.set_gauge("g", &[], 9.0);
        b.observe("h", &[], 3.0);
        a.merge(&b);
        let recs = a.records();
        assert_eq!(recs[0].value, MetricValue::Counter(3));
        assert_eq!(recs[1].value, MetricValue::Gauge(9.0));
        match &recs[2].value {
            MetricValue::Summary { count, .. } => assert_eq!(*count, 2),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn records_are_deterministically_ordered() {
        let mut reg = Registry::default();
        reg.inc("z", &[], 1);
        reg.inc("a", &[("node", "1")], 1);
        reg.inc("a", &[("node", "0")], 1);
        let names: Vec<String> = reg
            .records()
            .iter()
            .map(|r| {
                format!(
                    "{}{}",
                    r.name,
                    r.labels.iter().map(|(_, v)| v.as_str()).collect::<String>()
                )
            })
            .collect();
        assert_eq!(names, vec!["a0", "a1", "z"]);
    }
}
