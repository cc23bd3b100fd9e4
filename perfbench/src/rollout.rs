//! The retrain-and-redeploy cycle: robust build from a fresh training
//! slice, artifact save/load round trip, shadow mount over the wire,
//! mirrored traffic, promote.

use crate::deploy::{references, BenchResult, Deployer, Versions, TENANT};
use crate::inputs::Inputs;
use crate::load::Ledger;
use napmon_artifact::MonitorArtifact;
use napmon_wire::{TenantRoute, WireClient, WireError};
use std::time::Instant;

/// Query frames the admin connection sends while the candidate shadows.
const MIRRORED_FRAMES: usize = 8;

/// What one cycle measured.
pub struct Cycle {
    /// Training slice in hand to the promoted version serving, excluding
    /// the reference verdicts computed on the way.
    pub secs: f64,
    /// Lemma 1 probes of the new version that warned over the wire.
    pub lemma_warnings: u64,
}

/// Counts one admin request in `ledger`.
fn admin<T>(ledger: &mut Ledger, result: Result<T, WireError>) -> BenchResult<T> {
    ledger.attempted += 1;
    result.map_err(|e| {
        ledger.failed += 1;
        e.into()
    })
}

/// Rolls out `version`, built from `inputs.versions[version - 1]`, through
/// the admin connection.
pub fn cycle(
    dep: &mut Deployer,
    conn: &mut WireClient,
    inputs: &Inputs,
    versions: &Versions,
    version: u32,
    ledger: &mut Ledger,
) -> BenchResult<Cycle> {
    let started = Instant::now();
    let train = &inputs.versions[version as usize - 1];
    let monitor = dep.build(train)?;
    let refs_started = Instant::now();
    versions.publish(version, references(&monitor, &dep.net, &inputs.frames)?);
    let excluded = refs_started.elapsed().as_secs_f64();

    let path = dep.fresh_path("artifact").with_extension("json");
    MonitorArtifact::from_parts(dep.spec.clone(), dep.net.clone(), monitor, train.len())?
        .save_json(&path)?;
    let json = MonitorArtifact::load_json(&path)?.to_json_string()?;
    std::fs::remove_file(&path)?;

    conn.set_route(Some(TenantRoute::pinned(TENANT, version)));
    admin(ledger, conn.mount_artifact(true, &json))?;
    conn.set_route(Some(TenantRoute::active(TENANT)));
    for i in 0..MIRRORED_FRAMES {
        let frame = (version as usize * 31 + i) % inputs.frames.len();
        let oldest = versions.active();
        let verdicts = admin(ledger, conn.query_batch(&inputs.frames[frame]))?;
        if !versions.matches(oldest, versions.newest(), frame, &verdicts) {
            ledger.mismatches += 1;
        }
    }
    conn.set_route(Some(TenantRoute::pinned(TENANT, version)));
    admin(ledger, conn.promote())?;
    versions.promoted(version);
    let secs = started.elapsed().as_secs_f64() - excluded;

    conn.set_route(Some(TenantRoute::active(TENANT)));
    let mut lemma_warnings = 0;
    for chunk in inputs.lemma[version as usize - 1].chunks(64) {
        let verdicts = admin(ledger, conn.query_batch(chunk))?;
        lemma_warnings += verdicts.iter().filter(|v| v.warning).count() as u64;
    }
    Ok(Cycle {
        secs,
        lemma_warnings,
    })
}
