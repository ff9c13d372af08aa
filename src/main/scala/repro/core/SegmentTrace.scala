package repro.core

import repro.workload.ConfigProfile

/** Driver-side columnar view of a stream's segments with the per-(segment,
  * config) quality and cost matrices, produced by [[QualityMatrix]].
  *
  * All control-loop components (offline fit, planner, switcher, simulator,
  * baselines) consume this. Spark synthesizes the stream; the matrices are
  * filled on the driver by the workload's scalar law, so every cell equals
  * `Workload.quality`/`reported`/`costPerSec` bit for bit.
  *
  * Matrix rows are read-only: one row array may be shared by many segments
  * (`QualityMatrix.trace` shares bit-identical cost rows, and `slice` keeps
  * the sharing), so a write into `cost(s)` would change every segment that
  * shares it.
  *
  * @param segSec     segment length in seconds
  * @param day        day index per segment
  * @param regime     latent content regime per segment (ground truth, used
  *                   only for evaluation — never by the system itself)
  * @param difficulty latent difficulty per segment (ground truth, ditto)
  * @param load       concurrent streams per segment
  * @param configs    the knob configurations the matrices are computed for
  * @param qual       qual(s)(k): application quality of configs(k) on s
  * @param cost       cost(s)(k): core·s to process segment s with configs(k)
  * @param report     report(s)(k): the certainty metric the user code
  *                   reports while processing — the switcher's only signal
  */
final case class SegmentTrace(
    segSec: Double,
    day: Array[Int],
    regime: Array[Int],
    difficulty: Array[Double],
    load: Array[Double],
    configs: Vector[ConfigProfile],
    qual: Array[Array[Double]],
    cost: Array[Array[Double]],
    report: Array[Array[Double]],
) {
  def nSegments: Int = day.length
  def nConfigs: Int  = configs.length

  /** Index of the first segment of `dayIdx`. */
  def dayStart(dayIdx: Int): Int = {
    val i = java.util.Arrays.binarySearch(day, dayIdx)
    if (i < 0) -(i + 1)
    else { var j = i; while (j > 0 && day(j - 1) == dayIdx) j -= 1; j }
  }

  /** Sub-trace covering segments [from, until). */
  def slice(from: Int, until: Int): SegmentTrace =
    SegmentTrace(segSec,
      day.slice(from, until), regime.slice(from, until),
      difficulty.slice(from, until), load.slice(from, until),
      configs, qual.slice(from, until), cost.slice(from, until),
      report.slice(from, until))

  /** Total quality achievable by the per-segment best config (normalizer). */
  lazy val maxTotalQuality: Double = {
    var s = 0.0
    var i = 0
    while (i < nSegments) { s += qual(i).max; i += 1 }
    s
  }
}
