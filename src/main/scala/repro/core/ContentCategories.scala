package repro.core

import repro.util.KMeansLocal

/** Content categorization (paper §3.2, Appendix H).
  *
  * Segments are clustered purely by the REPORTED quality vector (the
  * certainty metric the user code extracts while processing, §4.2) — the
  * system never looks at pixels (or here, at the latent difficulty). A
  * category c is its KMeans center: the expected reported quality of every
  * config k on content of that category. The application-quality centers
  * q̂(k, c) the planner optimizes are computed separately per category
  * (`Skyscraper.meanByCategory`).
  */
final case class ContentCategories(model: KMeansLocal.Model, discriminatorDim: Int) {
  /** Number of categories |C|. */
  def n: Int = model.k

  /** Expected REPORTED quality of config index k on category c. */
  def center(c: Int, k: Int): Double = model.centers(c)(k)

  /** Ground-truth-style classification from the full report vector. */
  def classifyFull(qualVec: Array[Double]): Int = model.classify(qualVec)

  /** Online classification (paper Eq. 5): only the reported quality of the
    * currently running config `k` is observable.
    */
  def classifyOnline(k: Int, reportedQual: Double): Int =
    model.classifyByDim(k, reportedQual)
}

object ContentCategories {

  /** Fit categories on a sample of the training trace's report vectors.
    *
    * @param trace        training trace (report matrix over the filtered K)
    * @param nCategories  k of KMeans
    * @param sampleFrac   fraction of training segments to cluster on (paper
    *                     default: 5% of the unlabeled data)
    */
  def fit(trace: SegmentTrace, nCategories: Int, sampleFrac: Double = 0.05,
          seed: Long = 11): ContentCategories = {
    val n = trace.nSegments
    val stride = math.max(1, (1.0 / math.max(sampleFrac, 1e-6)).toInt)
    val offset = Math.floorMod(seed, stride.toLong).toInt
    val sample = (offset until n by stride).map(trace.reportRow).toVector
    val model  = KMeansLocal.fit(sample, nCategories)
    ContentCategories(model, discriminatorDim(model))
  }

  /** The paper classifies training segments with the cheapest config k⁻,
    * unless k⁻ does not discriminate between categories (footnote 7) — then
    * the next-cheapest discriminating config is used. A dimension
    * discriminates if the category centers are spread along it.
    */
  def discriminatorDim(model: KMeansLocal.Model): Int = {
    val k = model.centers.headOption.map(_.length).getOrElse(0)
    if (k == 0 || model.k <= 1) return 0
    def spread(dim: Int): Double = {
      val vals = model.centers.map(_(dim)).sorted
      vals.sliding(2).map { case Array(a, b) => b - a; case _ => 0.0 }.min
    }
    val spreads = (0 until k).map(spread)
    val threshold = spreads.max * 0.25
    (0 until k).find(spreads(_) >= threshold).getOrElse(spreads.indices.maxBy(spreads))
  }

  /** Assign every segment of `trace` a category the way the offline phase
    * does (Appendix H): classify by the discriminating config's quality only.
    */
  def assignOnline(cats: ContentCategories, trace: SegmentTrace): Array[Int] = {
    val dim = cats.discriminatorDim
    Array.tabulate(trace.nSegments)(i => cats.classifyOnline(dim, trace.report(i, dim)))
  }

  /** Ground-truth assignment from full quality vectors (evaluation only). */
  def assignFull(cats: ContentCategories, trace: SegmentTrace): Array[Int] =
    Array.tabulate(trace.nSegments)(i => cats.classifyFull(trace.reportRow(i)))
}
