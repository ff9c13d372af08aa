package repro.util

/** Minimal feed-forward network matching the paper's forecaster (Appendix K):
  * `input → 16 ReLU → 8 ReLU → |C| softmax`, trained with SGD.
  *
  * Targets are probability histograms (category frequencies over the planned
  * interval); the loss is cross-entropy against the soft target, whose
  * gradient at the softmax input is simply `(ŷ − y)`.
  *
  * Deterministic: all initialization derives from the seed.
  */
final class Mlp(val layerSizes: Array[Int], seed: Long = 42) {
  require(layerSizes.length >= 2, "need at least input and output layers")

  private val rng = new scala.util.Random(seed)
  // weights(l)(i)(j): layer-l input j → unit i; biases(l)(i).
  private val weights: Array[Array[Array[Double]]] =
    Array.tabulate(layerSizes.length - 1) { l =>
      val fanIn = layerSizes(l)
      val scale = math.sqrt(2.0 / fanIn) // He init for ReLU stacks
      Array.fill(layerSizes(l + 1), fanIn)(rng.nextGaussian() * scale)
    }
  private val biases: Array[Array[Double]] =
    Array.tabulate(layerSizes.length - 1)(l => Array.fill(layerSizes(l + 1))(0.0))

  private def affine(l: Int, x: Array[Double]): Array[Double] = {
    val out = Array.ofDim[Double](layerSizes(l + 1))
    var i = 0
    while (i < out.length) {
      var s = biases(l)(i)
      val w = weights(l)(i)
      var j = 0
      while (j < x.length) { s += w(j) * x(j); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  private def relu(x: Array[Double]): Array[Double] = x.map(v => math.max(0.0, v))

  private def softmax(x: Array[Double]): Array[Double] = {
    val m = x.max
    val e = x.map(v => math.exp(v - m))
    val s = e.sum
    e.map(_ / s)
  }

  /** Forward pass → softmax output (a probability histogram). */
  def predict(input: Array[Double]): Array[Double] = {
    var a = input
    for (l <- 0 until weights.length - 1) a = relu(affine(l, a))
    softmax(affine(weights.length - 1, a))
  }

  /** Cross-entropy of one example (soft target). */
  def loss(input: Array[Double], target: Array[Double]): Double = {
    val p = predict(input)
    -target.zip(p).map { case (t, q) => t * math.log(math.max(q, 1e-12)) }.sum
  }

  /** One SGD step on a single example; returns the example's loss. */
  def step(input: Array[Double], target: Array[Double], lr: Double): Double = {
    val nL = weights.length
    // Forward, caching activations.
    val acts = Array.ofDim[Array[Double]](nL + 1) // acts(0)=input … acts(nL)=output
    acts(0) = input
    val pre = Array.ofDim[Array[Double]](nL)
    for (l <- 0 until nL) {
      pre(l) = affine(l, acts(l))
      acts(l + 1) = if (l == nL - 1) softmax(pre(l)) else relu(pre(l))
    }
    val lossVal =
      -target.zip(acts(nL)).map { case (t, q) => t * math.log(math.max(q, 1e-12)) }.sum

    // Backward. delta = dLoss/dPre(l).
    var delta = acts(nL).zip(target).map { case (p, t) => p - t }
    for (l <- (nL - 1) to 0 by -1) {
      val aPrev = acts(l)
      // Propagate through the PRE-update weights first (true gradient).
      val next: Array[Double] =
        if (l > 0) {
          val nx = Array.ofDim[Double](aPrev.length)
          var j = 0
          while (j < aPrev.length) {
            var s = 0.0
            var i2 = 0
            while (i2 < delta.length) { s += weights(l)(i2)(j) * delta(i2); i2 += 1 }
            nx(j) = if (pre(l - 1)(j) > 0) s else 0.0
            j += 1
          }
          nx
        } else null
      // Gradient step for this layer.
      var i = 0
      while (i < delta.length) {
        val w = weights(l)(i)
        val d = delta(i)
        var j = 0
        while (j < aPrev.length) { w(j) -= lr * d * aPrev(j); j += 1 }
        biases(l)(i) -= lr * d
        i += 1
      }
      if (l > 0) delta = next
    }
    lossVal
  }

  /** Epoch-based training with a held-out 20 % split; keeps best-validation
    * weights, as the paper does ("weights with the best validation accuracy").
    */
  def fit(data: Seq[(Array[Double], Array[Double])], epochs: Int = 40,
          lr: Double = 0.05): Double = {
    if (data.isEmpty) return Double.NaN
    val shuffled = new scala.util.Random(seed ^ 0x5eed).shuffle(data)
    val nVal  = math.max(1, (shuffled.size * 0.2).toInt)
    val (valSet, train) = shuffled.splitAt(nVal)
    var bestVal = Double.MaxValue
    var bestW: Array[Array[Array[Double]]] = null
    var bestB: Array[Array[Double]] = null
    for (_ <- 0 until epochs) {
      train.foreach { case (x, y) => step(x, y, lr) }
      val v = valSet.map { case (x, y) => loss(x, y) }.sum / valSet.size
      if (v < bestVal) {
        bestVal = v
        bestW = weights.map(_.map(_.clone()))
        bestB = biases.map(_.clone())
      }
    }
    if (bestW != null) {
      for (l <- weights.indices) {
        for (i <- weights(l).indices) Array.copy(bestW(l)(i), 0, weights(l)(i), 0, weights(l)(i).length)
        Array.copy(bestB(l), 0, biases(l), 0, biases(l).length)
      }
    }
    bestVal
  }
}
