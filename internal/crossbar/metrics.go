package crossbar

// Crossbar telemetry, recorded into telemetry.Default(). Handles resolve
// once at package init; recording on the trial hot path is
// allocation-free.
//
// Metric names:
//
//	crossbar.stuck.cells      stuck-at devices injected across all trials
//	crossbar.stuck.columns    stuck column drivers injected
//	crossbar.detect.hits      column segments flagged by online detection
//	crossbar.columns.remapped flagged segments repaired onto spare columns
//	crossbar.columns.zeroed   flagged segments zeroed (graceful degradation)
//	crossbar.scrub.rewrites   spare-column programming operations (endurance
//	                          spend; includes write-verify retries)
//	crossbar.adc.clips        ADC saturation events across all kernels
import "repro/internal/telemetry"

var met = struct {
	stuckCells, stuckCols    *telemetry.Counter
	detectHits               *telemetry.Counter
	colsRemapped, colsZeroed *telemetry.Counter
	scrubRewrites            *telemetry.Counter
	adcClips                 *telemetry.Counter
}{
	stuckCells:    telemetry.Default().Counter("crossbar.stuck.cells"),
	stuckCols:     telemetry.Default().Counter("crossbar.stuck.columns"),
	detectHits:    telemetry.Default().Counter("crossbar.detect.hits"),
	colsRemapped:  telemetry.Default().Counter("crossbar.columns.remapped"),
	colsZeroed:    telemetry.Default().Counter("crossbar.columns.zeroed"),
	scrubRewrites: telemetry.Default().Counter("crossbar.scrub.rewrites"),
	adcClips:      telemetry.Default().Counter("crossbar.adc.clips"),
}
