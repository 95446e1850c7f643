package repro.core

import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}

/** Unit + property tests for the distance primitives every index uses. */
class VectorMathSpec extends SparkSpec with PropSupport {

  private val vecGen: Gen[Array[Float]] =
    Gen.chooseNum(1, 16).flatMap(d => Gen.listOfN(d, Gen.chooseNum(-100f, 100f)).map(_.toArray))

  private val pairGen: Gen[(Array[Float], Array[Float])] = for {
    d <- Gen.chooseNum(1, 16)
    a <- Gen.listOfN(d, Gen.chooseNum(-100f, 100f))
    b <- Gen.listOfN(d, Gen.chooseNum(-100f, 100f))
  } yield (a.toArray, b.toArray)

  test("sqDist of identical vectors is zero") {
    assert(VectorMath.sqDist(Array(1f, 2f, 3f), Array(1f, 2f, 3f)) === 0.0)
  }

  test("sqDist matches hand computation") {
    assert(VectorMath.sqDist(Array(0f, 0f), Array(3f, 4f)) === 25.0)
  }

  test("dist is the square root of sqDist") {
    assert(VectorMath.dist(Array(0f, 0f), Array(3f, 4f)) === 5.0)
  }

  test("sqDist rejects mismatched dimensions") {
    intercept[IllegalArgumentException](VectorMath.sqDist(Array(1f), Array(1f, 2f)))
  }

  test("property: sqDist is symmetric") {
    checkProp(Prop.forAll(pairGen) { case (a, b) =>
      math.abs(VectorMath.sqDist(a, b) - VectorMath.sqDist(b, a)) < 1e-6
    })
  }

  test("property: sqDist is non-negative") {
    checkProp(Prop.forAll(pairGen) { case (a, b) => VectorMath.sqDist(a, b) >= 0.0 })
  }

  test("property: self distance is zero") {
    checkProp(Prop.forAll(vecGen)(v => VectorMath.sqDist(v, v) == 0.0))
  }

  test("property: triangle inequality holds for dist") {
    checkProp(Prop.forAll(Gen.chooseNum(1, 8)) { d =>
      val r = new scala.util.Random(d)
      val a = Array.fill(d)(r.nextFloat() * 10)
      val b = Array.fill(d)(r.nextFloat() * 10)
      val c = Array.fill(d)(r.nextFloat() * 10)
      VectorMath.dist(a, c) <= VectorMath.dist(a, b) + VectorMath.dist(b, c) + 1e-6
    })
  }

  test("mean of a single vector is itself") {
    val v = Array(1f, 2f, 3f)
    assert(VectorMath.mean(Seq(v)).toSeq == v.toSeq)
  }

  test("mean of symmetric points is the midpoint") {
    val m = VectorMath.mean(Seq(Array(0f, 0f), Array(2f, 4f)))
    assert(m.toSeq == Seq(1f, 2f))
  }

  test("mean rejects empty input") {
    intercept[IllegalArgumentException](VectorMath.mean(Seq.empty))
  }

  test("property: mean is inside the bounding box") {
    checkProp(Prop.forAll(Gen.chooseNum(2, 10)) { n =>
      val r = new scala.util.Random(n)
      val vs = Seq.fill(n)(Array.fill(4)(r.nextFloat() * 100))
      val m = VectorMath.mean(vs)
      (0 until 4).forall { i =>
        m(i) >= vs.map(_(i)).min - 1e-3 && m(i) <= vs.map(_(i)).max + 1e-3
      }
    })
  }

  test("topK dedupes ids keeping minimum distance") {
    val scored = Seq((1L, 5.0), (1L, 2.0), (2L, 3.0), (3L, 10.0))
    assert(VectorMath.topK(scored, 2) == Seq((1L, 2.0), (2L, 3.0)))
  }

  test("topK orders by distance then id") {
    val scored = Seq((5L, 1.0), (2L, 1.0), (9L, 0.5))
    assert(VectorMath.topK(scored, 3).map(_._1) == Seq(9L, 2L, 5L))
  }

  test("topK of empty input is empty") {
    assert(VectorMath.topK(Seq.empty, 5).isEmpty)
  }

  /** The pre-selection `topK`: dedupe through `groupMapReduce`, sort, take k. */
  private def sortedTopK(scored: Iterable[(Long, Double)], k: Int): Seq[(Long, Double)] =
    scored.groupMapReduce(_._1)(_._2)(math.min).toSeq.sortBy { case (id, d) => (d, id) }.take(k)

  test("topK equals dedupe-then-sort on repeated ids, ties and any k") {
    val rnd = new scala.util.Random(3)
    (1 to 300).foreach { trial =>
      val ids = 1 + rnd.nextInt(40)
      // Few distinct distances, so ties are common; an id recurs with
      // different distances, as replicas with reused ids do on disk.
      val scored = Seq.fill(rnd.nextInt(120)) {
        (rnd.nextInt(ids).toLong, rnd.nextInt(12).toDouble / 4)
      }
      Seq(0, 1, 3, 10, ids, ids + 7).foreach { k =>
        assert(VectorMath.topK(scored, k) == sortedTopK(scored, k), s"trial $trial, k=$k: $scored")
      }
    }
  }
}
