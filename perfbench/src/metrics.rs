//! The benchmark's metric catalogue, in `BENCHMARK.json` order.
//!
//! Every run prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`), whatever the workload, so the names are
//! shared. A per-layer metric a workload does not exercise reads 0: that
//! layer did no work there (the RX layers during `station_day`, say).

/// `(name, unit, better)`.
pub type Spec = (&'static str, &'static str, &'static str);

/// Metrics a user of the system sees, reported by every workload.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
];

/// Per-layer metrics of the traced run, grouped by the workload that
/// exercises them.
pub const PER_LAYER: &[Spec] = &[
    // station_day
    ("station.boot_s", "s", "lower"),
    ("station.day_s", "s", "lower"),
    ("pagegen.render_ms", "ms", "lower"),
    ("image.strip_encode_ms", "ms", "lower"),
    ("core.chunker_ms", "ms", "lower"),
    ("modem.modulate_ms", "ms", "lower"),
    ("server.cache.lookup_ms", "ms", "lower"),
    ("server.cache.store_ms", "ms", "lower"),
    ("server.cache.full_hits", "count", "higher"),
    ("server.cache.delta_hits", "count", "higher"),
    ("server.cache.misses", "count", "lower"),
    ("image.strips_reused_ratio", "ratio", "higher"),
    ("image.strips_delta_total", "count", "lower"),
    ("core.link.bursts_reused_ratio", "ratio", "higher"),
    ("core.link.bursts_delta_total", "count", "lower"),
    ("station.unattributed_ms", "ms", "lower"),
    ("station.trace_overhead_ms", "ms", "lower"),
    // phone_rx
    ("phone.rtf.clean", "s/s", "lower"),
    ("phone.rtf.cliff", "s/s", "lower"),
    ("phone.rtf.fringe", "s/s", "lower"),
    ("phone.frame_loss.cliff", "ratio", "lower"),
    ("phone.pixel_loss.fringe", "ratio", "lower"),
    ("phone.frames_sent", "count", "higher"),
    ("phone.air_s", "s", "higher"),
    ("radio.fm_demod_ms.clean", "ms", "lower"),
    ("radio.mpx_decompose_ms.clean", "ms", "lower"),
    ("radio.mpx_stereo_decoded.clean", "count", "lower"),
    ("core.link.demodulate_ms.clean", "ms", "lower"),
    ("modem.bursts_detected.clean", "count", "higher"),
    ("modem.bursts_failed.clean", "count", "lower"),
    ("core.link.frames_ok.clean", "count", "higher"),
    ("core.link.frames_bad_crc.clean", "count", "lower"),
    ("core.reassembly_ms.clean", "ms", "lower"),
    ("client.finalize_ms.clean", "ms", "lower"),
    ("client.pages_finalized.clean", "count", "higher"),
    ("client.pages_meta_incomplete.clean", "count", "lower"),
    ("phone.unattributed_ms.clean", "ms", "lower"),
    ("radio.fm_demod_ms.cliff", "ms", "lower"),
    ("radio.mpx_decompose_ms.cliff", "ms", "lower"),
    ("radio.mpx_stereo_decoded.cliff", "count", "lower"),
    ("core.link.demodulate_ms.cliff", "ms", "lower"),
    ("modem.bursts_detected.cliff", "count", "higher"),
    ("modem.bursts_failed.cliff", "count", "lower"),
    ("core.link.frames_ok.cliff", "count", "higher"),
    ("core.link.frames_bad_crc.cliff", "count", "lower"),
    ("core.reassembly_ms.cliff", "ms", "lower"),
    ("client.finalize_ms.cliff", "ms", "lower"),
    ("client.pages_finalized.cliff", "count", "higher"),
    ("client.pages_meta_incomplete.cliff", "count", "lower"),
    ("phone.unattributed_ms.cliff", "ms", "lower"),
    ("radio.fm_demod_ms.fringe", "ms", "lower"),
    ("radio.mpx_decompose_ms.fringe", "ms", "lower"),
    ("radio.mpx_stereo_decoded.fringe", "count", "lower"),
    ("core.link.demodulate_ms.fringe", "ms", "lower"),
    ("modem.bursts_detected.fringe", "count", "higher"),
    ("modem.bursts_failed.fringe", "count", "lower"),
    ("core.link.frames_ok.fringe", "count", "higher"),
    ("core.link.frames_bad_crc.fringe", "count", "lower"),
    ("core.reassembly_ms.fringe", "ms", "lower"),
    ("client.finalize_ms.fringe", "ms", "lower"),
    ("client.pages_finalized.fringe", "count", "higher"),
    ("client.pages_meta_incomplete.fringe", "count", "lower"),
    ("phone.unattributed_ms.fringe", "ms", "lower"),
    ("phone.trace_overhead_ms", "ms", "lower"),
    // natsim_day
    ("sim.active_lh_per_s", "lh/s", "higher"),
    ("sim.fast_path_s", "s", "lower"),
    ("sim.dsp_cohort_s", "s", "lower"),
    ("radio.faults.loss_curve_ms", "ms", "lower"),
    ("radio.faults.loss_curves", "count", "higher"),
    ("sim.active_listener_hours", "count", "higher"),
    ("sim.escalations", "count", "higher"),
    ("sim.trace_overhead_ms", "ms", "lower"),
    // cluster_day
    ("cluster.day_s", "s", "lower"),
    ("cluster.rpc_fail_frac", "ratio", "lower"),
    ("server.cluster.push_ms", "ms", "lower"),
    ("server.cluster.pump_ms", "ms", "lower"),
    ("server.cluster.service_ms", "ms", "lower"),
    ("server.cluster.advance_ms", "ms", "lower"),
    ("sms.accept_ms", "ms", "lower"),
    ("cluster.listener_ms", "ms", "lower"),
    ("cluster.boot_ms", "ms", "lower"),
    ("cluster.kill_restart_ms", "ms", "lower"),
    ("cluster.unattributed_ms", "ms", "lower"),
    ("cluster.trace_overhead_ms", "ms", "lower"),
    ("net.rpc.submitted", "count", "higher"),
    ("net.rpc.sent", "count", "lower"),
    ("net.rpc.retries", "count", "lower"),
    ("net.rpc.expired", "count", "lower"),
    ("net.rpc.shed", "count", "lower"),
    ("net.rpc.refused", "count", "lower"),
    ("net.codec.resyncs", "count", "lower"),
    ("net.codec.crc_failures", "count", "lower"),
    ("net.pipe.bytes", "bytes", "lower"),
    ("server.store.bytes_written", "bytes", "lower"),
    ("server.cluster.failovers", "count", "lower"),
    ("server.cluster.inline_fallbacks", "count", "lower"),
    ("sms.shed", "count", "lower"),
];

/// The unit a catalogued metric is reported in.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} listed twice");
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e = json.find("\"end_to_end\"").expect("end_to_end");
        let layers = json.find("\"per_layer\"").expect("per_layer");
        for (name, unit, better) in END_TO_END {
            let at = json
                .find(&format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
                ))
                .unwrap_or_else(|| panic!("{name} missing from end_to_end"));
            assert!(at > e2e && at < layers, "{name} outside end_to_end");
        }
        for (name, unit, better) in PER_LAYER {
            let at = json
                .find(&format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                ))
                .unwrap_or_else(|| panic!("{name} missing from per_layer"));
            assert!(at > layers, "{name} outside per_layer");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            4 + END_TO_END.len() + PER_LAYER.len(),
            "stray metric in BENCHMARK.json"
        );
    }
}
