package repro.core

import repro.workload.ConfigProfile

/** Driver-side columnar view of a stream's segments with the per-(segment,
  * config) quality, cost and report channels, produced by [[QualityMatrix]].
  *
  * All control-loop components (offline fit, planner, switcher, simulator,
  * baselines) consume this through the cell accessors `qual(i, k)`,
  * `cost(i, k)` and `report(i, k)`. Spark synthesizes the stream; the cells
  * are filled on the driver by the workload's scalar law, so every cell
  * equals `Workload.quality`/`reported`/`costPerSec` bit for bit.
  *
  * Layout. The report channel is one flat row-major n·K array, and qual is not
  * stored: `qual(i, k)` is `weight(i) * report(i, k)` computed on read, the
  * same product the law defines (`Workload.quality`), so it is bit-identical
  * to a stored value. Cost keeps one row array per segment, and consecutive
  * bit-identical rows are one shared array. Per segment that is K·8 + 8 bytes
  * of report and weight (80 B at K = 9), plus a pointer to a cost row that is
  * usually shared.
  *
  * Every array is read-only: a cost row may be shared by many segments
  * (`QualityMatrix.trace` shares bit-identical rows, and `slice` keeps the
  * sharing), so a write into `costRows(s)` would change every segment that
  * shares it.
  *
  * @param segSec      segment length in seconds
  * @param day         day index per segment
  * @param regime      latent content regime per segment (ground truth, used
  *                    only for evaluation — never by the system itself)
  * @param difficulty  latent difficulty per segment (ground truth, ditto)
  * @param load        concurrent streams per segment
  * @param configs     the knob configurations the channels are computed for
  * @param weight      weight(s): the segment's quality mass, `qualityWeight(d_s)`
  * @param reportCells reportCells(s·K + k): the certainty metric the user code
  *                    reports while processing configs(k) on s — the
  *                    switcher's only signal
  * @param costRows    costRows(s)(k): core·s to process segment s with configs(k)
  */
final case class SegmentTrace(
    segSec: Double,
    day: Array[Int],
    regime: Array[Int],
    difficulty: Array[Double],
    load: Array[Double],
    configs: Vector[ConfigProfile],
    weight: Array[Double],
    reportCells: Array[Double],
    costRows: Array[Array[Double]],
) {
  private[this] val nK = configs.length
  require(weight.length == day.length && costRows.length == day.length &&
          reportCells.length == day.length * nK,
    s"SegmentTrace: ${day.length} segments × $nK configs need as many weights and cost " +
    s"rows and ${day.length * nK} report cells")

  def nSegments: Int = day.length
  def nConfigs: Int  = nK

  /** The reported quality of configs(k) on segment i. */
  def report(i: Int, k: Int): Double = reportCells(i * nK + k)

  /** The application quality of configs(k) on segment i. */
  def qual(i: Int, k: Int): Double = weight(i) * reportCells(i * nK + k)

  /** core·s to process segment i with configs(k). */
  def cost(i: Int, k: Int): Double = costRows(i)(k)

  /** A copy of segment i's report vector over all configs. */
  def reportRow(i: Int): Array[Double] =
    java.util.Arrays.copyOfRange(reportCells, i * nK, (i + 1) * nK)

  @deprecated("an O(n·K) copy of the channel; read cells with qual(i, k)", "0.1.0")
  def qual: Array[Array[Double]] = Array.tabulate(nSegments) { i =>
    val row = reportRow(i)
    var k = 0
    while (k < nK) { row(k) = weight(i) * row(k); k += 1 }
    row
  }

  @deprecated("a copy of the row pointers (the rows are the shared read-only cost rows); " +
              "read cells with cost(i, k)", "0.1.0")
  def cost: Array[Array[Double]] = costRows.clone()

  @deprecated("an O(n·K) copy of the channel; read cells with report(i, k)", "0.1.0")
  def report: Array[Array[Double]] = Array.tabulate(nSegments)(reportRow)

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
      difficulty.slice(from, until), load.slice(from, until), configs,
      weight.slice(from, until), reportCells.slice(from * nK, until * nK),
      costRows.slice(from, until))

  /** Total quality achievable by the per-segment best config (normalizer). */
  lazy val maxTotalQuality: Double = {
    var s = 0.0
    var i = 0
    while (i < nSegments) {
      var best = qual(i, 0)
      var k = 1
      while (k < nK) { best = math.max(best, qual(i, k)); k += 1 }
      s += best
      i += 1
    }
    s
  }
}
