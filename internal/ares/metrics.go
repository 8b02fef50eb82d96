package ares

// Pipeline telemetry: per-phase timers over the trial pipeline
// (encode -> inject -> decode -> eval) and the encoding-cache hit/miss
// counters, recorded into telemetry.Default(). The handles are resolved
// once at package init; recording on the trial hot path is
// allocation-free (see internal/telemetry).
//
// Metric names:
//
//	ares.phase.encode    time spent building pristine encodings (ns)
//	ares.phase.inject    time in clone+inject+ECC per trial (ns)
//	ares.phase.decode    time decoding corrupted structures (ns)
//	ares.phase.eval      time in overlay-weights + inference, every route
//	                     (replica pool and reference oracle) (ns)
//	ares.enccache.hits   encoding-cache hits
//	ares.enccache.misses encoding-cache misses (encodes performed)
//
// Replica-pool measurement (the one measure step, replica.go):
//
//	ares.eval.parallel   wall time of a measurement incl. replica wait (ns)
//	ares.fastpath.hits   trials whose weights matched the route's pristine
//	                     reference exactly (inference skipped, delta 0 by
//	                     construction)
//	ares.fastpath.misses trials that required real inference
//	ares.replicas.created model replicas materialized (lazy, <= GOMAXPROCS)
//	ares.replicas.busy   replicas currently checked out (occupancy gauge)
//	ares.prefix.start.<layer> measured trials whose forward pass started
//	                     at that weight layer (named as in the model; a
//	                     full pass counts at the first); the layers before
//	                     it were read from the base's activation prefix
//	ares.prefix.bytes    memory held by activation-prefix snapshots,
//	                     summed over the bases built in this process (B)
//
// Error-mitigation events (the lifetime subsystem, internal/mitigate):
//
//	ecc.corrected            blocks repaired by SEC-DED across all trials
//	ecc.detected             uncorrectable blocks reported by SEC-DED
//	mitigate.degrade.blocks  uncorrectable blocks zeroed by graceful decode
//	mitigate.scrub.epochs    lifetime epochs simulated
//	mitigate.scrub.rewrites  scrub rewrites performed (endurance spend)
//	mitigate.floor.violations lifetime trials whose delta breached the floor

import "repro/internal/telemetry"

var met = struct {
	encode, inject, decode, eval *telemetry.Timer
	evalParallel                 *telemetry.Timer
	cacheHits, cacheMisses       *telemetry.Counter
	fastHits, fastMisses         *telemetry.Counter
	replicasCreated              *telemetry.Counter
	replicasBusy                 *telemetry.Gauge
	prefixBytes                  *telemetry.Gauge
	eccCorrected, eccDetected    *telemetry.Counter
	degradedBlocks               *telemetry.Counter
	scrubEpochs, scrubRewrites   *telemetry.Counter
	floorViolations              *telemetry.Counter
}{
	encode:          telemetry.Default().Timer("ares.phase.encode"),
	inject:          telemetry.Default().Timer("ares.phase.inject"),
	decode:          telemetry.Default().Timer("ares.phase.decode"),
	eval:            telemetry.Default().Timer("ares.phase.eval"),
	evalParallel:    telemetry.Default().Timer("ares.eval.parallel"),
	cacheHits:       telemetry.Default().Counter("ares.enccache.hits"),
	cacheMisses:     telemetry.Default().Counter("ares.enccache.misses"),
	fastHits:        telemetry.Default().Counter("ares.fastpath.hits"),
	fastMisses:      telemetry.Default().Counter("ares.fastpath.misses"),
	replicasCreated: telemetry.Default().Counter("ares.replicas.created"),
	replicasBusy:    telemetry.Default().Gauge("ares.replicas.busy"),
	prefixBytes:     telemetry.Default().Gauge("ares.prefix.bytes"),
	eccCorrected:    telemetry.Default().Counter("ecc.corrected"),
	eccDetected:     telemetry.Default().Counter("ecc.detected"),
	degradedBlocks:  telemetry.Default().Counter("mitigate.degrade.blocks"),
	scrubEpochs:     telemetry.Default().Counter("mitigate.scrub.epochs"),
	scrubRewrites:   telemetry.Default().Counter("mitigate.scrub.rewrites"),
	floorViolations: telemetry.Default().Counter("mitigate.floor.violations"),
}
