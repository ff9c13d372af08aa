package repro.core

import repro.workload.{ConfigProfile, Workload}

/** Driver-side columnar view of a stream's segments with the per-(segment,
  * config) quality, cost and report channels.
  *
  * All control-loop components (offline fit, planner, switcher, simulator,
  * baselines) consume this through the cell accessors `qual(i, k)`,
  * `cost(i, k)` and `report(i, k)`. A trace built by [[QualityMatrix]] is a
  * [[LawTrace]]: it keeps only the four columns (24 B per segment when
  * `sevPow` is 1) and evaluates the weight and each cell from the workload's
  * scalar law on read, so every cell equals
  * `Workload.quality`/`reported`/`costPerSec` bit for bit. `qual(i, k)` is
  * `weight(i) * report(i, k)` in every trace, the same product the law
  * defines (`Workload.quality`).
  *
  * `weight`, `report` and `cost` are the one seam: the stored-cells factory
  * `SegmentTrace(…)` builds a trace from given cells (hand-built traces in
  * tests), and the offline fit reads a working copy of the train report
  * through the same class.
  *
  * Every array is read-only: `slice` copies, but the fit's working copy
  * shares its base trace's columns.
  *
  * @param segSec      segment length in seconds
  * @param day         day index per segment
  * @param regime      latent content regime per segment (ground truth, used
  *                    only for evaluation — never by the system itself)
  * @param difficulty  latent difficulty per segment (ground truth, ditto)
  * @param load        concurrent streams per segment
  * @param configs     the knob configurations the channels are computed for
  */
abstract class SegmentTrace(
    val segSec: Double,
    val day: Array[Int],
    val regime: Array[Int],
    val difficulty: Array[Double],
    val load: Array[Double],
    val configs: Vector[ConfigProfile],
) {
  protected[this] final val nK = configs.length
  require(regime.length == day.length && difficulty.length == day.length &&
          load.length == day.length,
    s"SegmentTrace: ${day.length} segments need as many regimes, difficulties and loads")

  def nSegments: Int = day.length
  def nConfigs: Int  = nK

  /** weight(i): segment i's quality mass, `qualityWeight(difficulty(i))`. */
  def weight(i: Int): Double

  /** The reported quality of configs(k) on segment i: the certainty metric
    * the user code reports while processing it — the switcher's only signal.
    */
  def report(i: Int, k: Int): Double

  /** core·s to process segment i with configs(k). */
  def cost(i: Int, k: Int): Double

  /** Sub-trace covering segments [from, until). */
  def slice(from: Int, until: Int): SegmentTrace

  /** The application quality of configs(k) on segment i. */
  final def qual(i: Int, k: Int): Double = weight(i) * report(i, k)

  /** A copy of segment i's report vector over all configs. */
  def reportRow(i: Int): Array[Double] = row(i, report(_, _))

  // Index loops: a generic Array.tabulate would box each cell.
  private def row(i: Int, cell: (Int, Int) => Double): Array[Double] = {
    val r = new Array[Double](nK)
    var k = 0
    while (k < nK) { r(k) = cell(i, k); k += 1 }
    r
  }

  private def channel(cell: (Int, Int) => Double): Array[Array[Double]] = {
    val m = new Array[Array[Double]](nSegments)
    var i = 0
    while (i < nSegments) { m(i) = row(i, cell); i += 1 }
    m
  }

  @deprecated("an O(n·K) copy of the channel; read cells with qual(i, k)", "0.1.0")
  def qual: Array[Array[Double]] = channel(qual(_, _))

  @deprecated("an O(n·K) copy of the channel; read cells with cost(i, k)", "0.1.0")
  def cost: Array[Array[Double]] = channel(cost(_, _))

  @deprecated("an O(n·K) copy of the channel; read cells with report(i, k)", "0.1.0")
  def report: Array[Array[Double]] = channel(report(_, _))

  /** Index of the first segment of `dayIdx`. */
  def dayStart(dayIdx: Int): Int = {
    val i = java.util.Arrays.binarySearch(day, dayIdx)
    if (i < 0) -(i + 1)
    else { var j = i; while (j > 0 && day(j - 1) == dayIdx) j -= 1; j }
  }

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

object SegmentTrace {

  /** A trace with stored cells: `reportCells(s·K + k)` is the report of
    * configs(k) on segment s, and `costRows(s)(k)` its core·s. Hand-built
    * traces in tests substitute their cells and weights through this factory.
    */
  def apply(segSec: Double, day: Array[Int], regime: Array[Int], difficulty: Array[Double],
            load: Array[Double], configs: Vector[ConfigProfile], weight: Array[Double],
            reportCells: Array[Double], costRows: Array[Array[Double]]): SegmentTrace = {
    require(costRows.length == day.length && costRows.forall(_.length == configs.length),
      s"SegmentTrace: ${day.length} segments × ${configs.length} configs need as many cost rows")
    new Stored(segSec, day, regime, difficulty, load, configs, weight, reportCells,
               (i, k) => costRows(i)(k))
  }

  /** `t` with its weights and report read from a working copy of every
    * weight and report cell, filled once by a parallel loop over segments
    * (one task writes each segment's cells): for a pass that reads each
    * cell. It shares `t`'s columns and reads `t`'s costs.
    */
  private[core] def withReportCopy(t: SegmentTrace): SegmentTrace = {
    val nK = t.nConfigs
    val weights = new Array[Double](t.nSegments)
    val cells = new Array[Double](t.nSegments * nK)
    java.util.stream.IntStream.range(0, t.nSegments).parallel().forEach { i =>
      weights(i) = t.weight(i)
      var k = 0
      while (k < nK) { cells(i * nK + k) = t.report(i, k); k += 1 }
    }
    new Stored(t.segSec, t.day, t.regime, t.difficulty, t.load, t.configs, weights, cells,
               t.cost(_, _))
  }

  private final class Stored(
      segSec: Double, day: Array[Int], regime: Array[Int], difficulty: Array[Double],
      load: Array[Double], configs: Vector[ConfigProfile], weights: Array[Double],
      reportCells: Array[Double], costOf: (Int, Int) => Double,
  ) extends SegmentTrace(segSec, day, regime, difficulty, load, configs) {
    require(weights.length == day.length && reportCells.length == day.length * nK,
      s"SegmentTrace: need ${day.length} weights and ${day.length * nK} report cells")

    def weight(i: Int): Double = weights(i)
    def report(i: Int, k: Int): Double = reportCells(i * nK + k)
    def cost(i: Int, k: Int): Double = costOf(i, k)

    def slice(from: Int, until: Int): SegmentTrace =
      new Stored(segSec, day.slice(from, until), regime.slice(from, until),
        difficulty.slice(from, until), load.slice(from, until), configs,
        weights.slice(from, until), reportCells.slice(from * nK, until * nK),
        (i, k) => costOf(from + i, k))
  }
}

/** A trace whose cells are workload `w`'s law, evaluated on read. It stores
  * the four columns (24 B per segment) and, when `sevPow` ≠ 1, `dPow`, so a
  * report read costs one `exp` and one hash but no `pow`:
  *
  * {{{
  *   weight(i)    = w.qualityWeight(difficulty(i))
  *   report(i, k) = w.reportedCell(configs(k), first + i, ρ·affinity(regime(i)), dPow(i), load(i))
  *   cost(i, k)   = w.costPerSec(configs(k), load(i)) · segSec
  * }}}
  *
  * @param first the stream's segment id of segment 0: the report noise keys
  *              on the stream's segment id, and `slice(from, …)` adds `from`
  * @param dPow  dPow(s) = `StrictMath.pow(difficulty(s), w.sevPow)`: the
  *              `difficulty` array itself when `sevPow` is 1 (the power is
  *              then `d` bit for bit), a computed array otherwise
  */
final class LawTrace private[core] (
    w: Workload,
    val first: Long,
    day: Array[Int],
    regime: Array[Int],
    difficulty: Array[Double],
    load: Array[Double],
    configs: Vector[ConfigProfile],
    val dPow: Array[Double],
) extends SegmentTrace(w.segSec, day, regime, difficulty, load, configs) {
  require(dPow.length == day.length, s"LawTrace: ${day.length} segments need as many dPow")

  private[this] val profiles = configs.toArray
  private[this] val rhoEff = w.rhoEff(profiles)
  private[this] val sec = w.segSec

  def weight(i: Int): Double = w.qualityWeight(difficulty(i))

  def report(i: Int, k: Int): Double =
    w.reportedCell(profiles(k), first + i, rhoEff(regime(i))(k), dPow(i), load(i))

  def cost(i: Int, k: Int): Double = w.costPerSec(profiles(k), load(i)) * sec

  def slice(from: Int, until: Int): LawTrace = {
    val d = difficulty.slice(from, until)
    new LawTrace(w, first + from, day.slice(from, until), regime.slice(from, until), d,
      load.slice(from, until), configs, if (dPow eq difficulty) d else dPow.slice(from, until))
  }
}
