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

  private def relu(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = math.max(0.0, x(i)); i += 1 }
    out
  }

  // Index loops: the generic `max`/`sum` made `IterableOnceOps.reduceLeft`
  // hot with a profile whose C2 compile ran over a second, then gave up ("out
  // of nodes"), holding back the fit's other compiles in perfbench's warm fits.
  private def softmax(x: Array[Double]): Array[Double] = {
    var m = x(0)
    var i = 1
    while (i < x.length) { m = math.max(m, x(i)); i += 1 }
    val e = new Array[Double](x.length)
    var s = 0.0
    i = 0
    while (i < x.length) { e(i) = math.exp(x(i) - m); s += e(i); i += 1 }
    i = 0
    while (i < x.length) { e(i) /= s; i += 1 }
    e
  }

  /** Cross-entropy of output `p` against the soft target, summed in index order. */
  private def crossEntropy(target: Array[Double], p: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < math.min(target.length, p.length)) {
      s += target(i) * math.log(math.max(p(i), 1e-12))
      i += 1
    }
    -s
  }

  /** Every layer's activations for `input`: `acts(0)` is the input, each
    * hidden layer's is its ReLU output and the last is the softmax output.
    */
  private def forward(input: Array[Double]): Array[Array[Double]] = {
    val nL = weights.length
    val acts = Array.ofDim[Array[Double]](nL + 1)
    acts(0) = input
    var l = 0
    while (l < nL) {
      val z = affine(l, acts(l))
      acts(l + 1) = if (l == nL - 1) softmax(z) else relu(z)
      l += 1
    }
    acts
  }

  /** Forward pass → softmax output (a probability histogram). */
  def predict(input: Array[Double]): Array[Double] = forward(input).last

  /** Cross-entropy of one example (soft target). */
  def loss(input: Array[Double], target: Array[Double]): Double =
    crossEntropy(target, predict(input))

  /** One SGD step on a single example; returns the example's loss. */
  def step(input: Array[Double], target: Array[Double], lr: Double): Double = {
    val nL = weights.length
    val acts = forward(input) // acts(0)=input … acts(nL)=output
    val lossVal = crossEntropy(target, acts(nL))

    // Backward. delta = dLoss/dPre(l).
    var delta = new Array[Double](math.min(acts(nL).length, target.length))
    var o = 0
    while (o < delta.length) { delta(o) = acts(nL)(o) - target(o); o += 1 }
    var l = nL - 1
    while (l >= 0) {
      val aPrev = acts(l)
      // Propagate through the PRE-update weights first (true gradient), masked
      // by the ReLU: relu(z) > 0 iff z > 0, so aPrev gives the mask.
      val next: Array[Double] =
        if (l > 0) {
          val nx = Array.ofDim[Double](aPrev.length)
          var j = 0
          while (j < aPrev.length) {
            var s = 0.0
            var i2 = 0
            while (i2 < delta.length) { s += weights(l)(i2)(j) * delta(i2); i2 += 1 }
            nx(j) = if (aPrev(j) > 0) s else 0.0
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
      l -= 1
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
    if (bestW != null)
      for (l <- weights.indices) { weights(l) = bestW(l); biases(l) = bestB(l) }
    bestVal
  }
}
