package repro.nexmark

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.tvr.Times

class NexGenSpec extends SparkSpec {

  private val sf = 0.002 // 2k bids — fast unit-test scale

  test("bid count scales with the scale factor") {
    assert(NexGen.bids(spark, sf).count() == (NexGen.BidsPerSf * sf).toLong)
    assert(NexGen.bids(spark, sf / 2).count() == (NexGen.BidsPerSf * sf / 2).toLong)
  }

  test("generation is deterministic in (sf, seed)") {
    val a = NexGen.bids(spark, sf, seed = 42).collect().map(_.toSeq)
    val b = NexGen.bids(spark, sf, seed = 42).collect().map(_.toSeq)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different streams") {
    val a = NexGen.bids(spark, sf, seed = 1).agg(sum("price")).head().getLong(0)
    val b = NexGen.bids(spark, sf, seed = 2).agg(sum("price")).head().getLong(0)
    assert(a != b)
  }

  test("bids have the expected schema") {
    assert(NexGen.bids(spark, sf).columns.toSeq ==
      Seq("bidtime", "price", "item", "auction", "bidder", "ptime"))
  }

  test("arrival never precedes the event (ptime >= bidtime)") {
    val bad = NexGen.bids(spark, sf)
      .where(unix_millis(col("ptime")) < unix_millis(col("bidtime"))).count()
    assert(bad == 0)
  }

  test("zero skew produces an in-order stream") {
    val inOrder = NexGen.bids(spark, sf, meanSkewMs = 0)
    val bad = inOrder.where(unix_millis(col("ptime")) =!= unix_millis(col("bidtime"))).count()
    assert(bad == 0)
  }

  test("positive mean skew produces out-of-order arrivals") {
    val log = NexGen.arrivalLog(NexGen.bids(spark, sf, meanSkewMs = 2 * Times.MinuteMs))
    val sortedByArrival = log.sortBy(_._1).map(_._2)
    val inversions = sortedByArrival.sliding(2).count {
      case Seq(a, b) => a > b
      case _         => false
    }
    assert(inversions > 0, "expected event-time inversions in arrival order")
  }

  test("prices are positive and bounded") {
    val r = NexGen.bids(spark, sf).agg(min("price"), max("price")).head()
    assert(r.getLong(0) >= 1 && r.getLong(1) <= 10001)
  }

  test("perfect watermark never lies about future arrivals") {
    val bids = NexGen.bids(spark, sf)
    val log  = NexGen.arrivalLog(bids)
    val wm   = NexGen.perfectWatermark(bids, tickEveryMs = 5 * Times.MinuteMs)
    assert(log.forall { case (p, et) =>
      wm.advances.forall { case (q, v) => !(p > q) || et > v }
    })
  }

  test("slack watermark trails processing time by the slack") {
    val bids = NexGen.bids(spark, sf)
    val wm   = NexGen.slackWatermark(bids, tickEveryMs = Times.MinuteMs, slackMs = 5 * Times.MinuteMs)
    assert(wm.advances.forall { case (p, v) => v == p - 5 * Times.MinuteMs })
  }

  test("bidTvr wraps the stream as an event-timed TVR") {
    val bids = NexGen.bids(spark, sf)
    val wm   = NexGen.perfectWatermark(bids, 10 * Times.MinuteMs)
    val tvr  = NexGen.bidTvr(bids, wm)
    assert(tvr.eventTime.map(_.column).contains("bidtime"))
    assert(tvr.dataColumns == Seq("bidtime", "price", "item", "auction", "bidder"))
    assert(tvr.snapshot.count() == bids.count())
  }
}
