package repro.tvr

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport

class WatermarkTimelineSpec extends AnyFunSuite with PropSupport {

  private val wm = WatermarkTimeline.ofHm(
    "8:07" -> "8:05", "8:14" -> "8:08", "8:16" -> "8:12", "8:21" -> "8:20")

  test("value before the first advance is -inf") {
    assert(wm.at(Times.hm("8:00")) == Long.MinValue)
  }

  test("value is the latest advance at or before p (right-continuous)") {
    assert(wm.at(Times.hm("8:07")) == Times.hm("8:05"))
    assert(wm.at(Times.hm("8:13")) == Times.hm("8:05"))
    assert(wm.at(Times.hm("8:14")) == Times.hm("8:08"))
    assert(wm.at(Times.hm("8:30")) == Times.hm("8:20"))
  }

  test("firstPtimeAtOrAbove finds the window-completion instant (Listing 11/12)") {
    assert(wm.firstPtimeAtOrAbove(Times.hm("8:10")).contains(Times.hm("8:16")))
    assert(wm.firstPtimeAtOrAbove(Times.hm("8:20")).contains(Times.hm("8:21")))
    assert(wm.firstPtimeAtOrAbove(Times.hm("8:30")).isEmpty)
  }

  test("isComplete honors strictness") {
    val p = Times.hm("8:21")
    assert(wm.isComplete(Times.hm("8:20"), p, strict = false))
    assert(!wm.isComplete(Times.hm("8:20"), p, strict = true))
  }

  test("non-monotone advances are rejected") {
    intercept[IllegalArgumentException] {
      WatermarkTimeline(Vector((10L, 10L), (20L, 5L)))
    }
    intercept[IllegalArgumentException] {
      WatermarkTimeline(Vector((20L, 10L), (10L, 20L)))
    }
  }

  test("perfect watermark is a valid lower bound on future event times") {
    val gen = Gen.listOfN(60, Gen.zip(Gen.choose(0L, 10000L), Gen.choose(0L, 10000L)))
    checkProp(Prop.forAll(gen) { raw =>
      val arrivals = raw.map { case (p, et) => (p, et) }
      val w        = WatermarkTimeline.perfect(arrivals, 500L)
      arrivals.forall { case (p, et) =>
        // any event arriving after ptime q has event time > wm(q)
        w.advances.forall { case (q, v) => !(p > q) || et > v }
      }
    }, minTests = 50)
  }

  test("perfect watermark is monotone by construction") {
    val arrivals = Seq((100L, 900L), (200L, 50L), (300L, 2000L), (400L, 1500L))
    val w        = WatermarkTimeline.perfect(arrivals, 100L)
    assert(w.advances.sliding(2).forall {
      case Vector((p1, v1), (p2, v2)) => p1 <= p2 && v1 <= v2
      case _                          => true
    })
  }

  test("perfect watermark of an empty stream is empty") {
    assert(WatermarkTimeline.perfect(Nil, 100L).isEmpty)
  }

  test("tickPtimes lists distinct advance instants") {
    assert(wm.tickPtimes == Vector("8:07", "8:14", "8:16", "8:21").map(Times.hm))
  }
}
