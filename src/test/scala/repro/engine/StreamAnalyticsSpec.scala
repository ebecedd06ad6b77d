package repro.engine

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.StreamSqlSession
import repro.nexmark.NexGen
import repro.paperexample.PaperDataset
import repro.tvr.Times

class StreamAnalyticsSpec extends SparkSpec {
  import spark.implicits._

  private val TenMin = 10 * Times.MinuteMs

  /** Paper dataset as an event log with arrival times. */
  private lazy val paperEvents: DataFrame = PaperDataset.arrivals
    .map { case (p, bt, price, item) =>
      (Times.ts(Times.hm(bt)), price.toLong, item, Times.ts(Times.hm(p)))
    }
    .toDF("bidtime", "price", "item", "ptime")

  test("topChanges finds exactly the running-max raises of Listing 9") {
    val ch = StreamAnalytics.topChanges(paperEvents, TenMin).collect()
      .map(r => (Times.fmt(r.getLong(0)), Times.fmt(r.getLong(2))))
      .sortBy(identity)
    // window 8:00: changes at arrivals of A(8:08), C(8:13), D(8:15)
    // window 8:10: changes at arrivals of B(8:12), F(8:18) — E never raises
    assert(ch.toSeq == Seq(
      ("8:00", "8:08"), ("8:00", "8:13"), ("8:00", "8:15"),
      ("8:10", "8:12"), ("8:10", "8:18")))
  }

  test("continuousEmissions equals the Listing 9 changelog length") {
    assert(StreamAnalytics.continuousEmissions(paperEvents, TenMin) == 8L)
  }

  test("delayEmissions(6 min) equals the Listing 14 changelog length") {
    assert(StreamAnalytics.delayEmissions(paperEvents, TenMin, 6 * Times.MinuteMs) == 4L)
  }

  test("delayEmissions equals the evaluator's AFTER DELAY changelog length on Q7") {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    // 90 s and 2 min timers fire between ticks (e.g. 8:09:30, 8:10).
    Seq("'90' SECONDS" -> 90 * 1000L, "'2' MINUTES" -> 2 * Times.MinuteMs,
        "'6' MINUTES" -> 6 * Times.MinuteMs).foreach { case (ivl, d) =>
      val rows = s.sql(PaperDataset.q7Sql + s" EMIT STREAM AFTER DELAY INTERVAL $ivl").count()
      assert(StreamAnalytics.delayEmissions(paperEvents, TenMin, d) == rows, s"delay $ivl")
    }
  }

  test("watermarkEmissions equals one final row per window (Listing 13)") {
    assert(StreamAnalytics.watermarkEmissions(paperEvents, TenMin) == 2L)
  }

  test("delay 0 collapses to continuous; huge delay collapses to one emission per window") {
    val zero = StreamAnalytics.delayEmissions(paperEvents, TenMin, 0L)
    assert(zero == StreamAnalytics.continuousEmissions(paperEvents, TenMin))
    val huge = StreamAnalytics.delayEmissions(paperEvents, TenMin, Times.DayMs)
    assert(huge == StreamAnalytics.watermarkEmissions(paperEvents, TenMin))
  }

  test("emission volumes are ordered: watermark <= delay <= continuous") {
    val ev = NexGen.bids(spark, 0.002).select("bidtime", "price", "item", "ptime")
    val c  = StreamAnalytics.continuousEmissions(ev, TenMin)
    val d  = StreamAnalytics.delayEmissions(ev, TenMin, 5 * Times.MinuteMs)
    val w  = StreamAnalytics.watermarkEmissions(ev, TenMin)
    assert(w <= d && d <= c, s"expected $w <= $d <= $c")
  }

  test("watermarkLatency with the perfect watermark is small and drops nothing") {
    val bids = NexGen.bids(spark, 0.002)
    val wm   = NexGen.perfectWatermark(bids, tickEveryMs = Times.MinuteMs)
    val (mean, never) = StreamAnalytics.watermarkLatency(
      bids.select("bidtime", "price", "item", "ptime"), TenMin, wm)
    assert(never <= 1) // the stream's last window may never complete
    // A window closes once its laggiest event arrives: mean delay is on
    // the order of the max of ~600 Exp(2min) skews (~2min * ln 600 ≈ 13
    // min), and in particular far below the slack a drop-nothing buffer
    // would need (the max skew over the whole stream, ~> 20 min).
    assert(mean > 0 && mean < 30 * Times.MinuteMs)
    val maxSkew = bids.selectExpr("max(unix_millis(ptime) - unix_millis(bidtime))")
      .head().getLong(0)
    assert(mean < maxSkew, "watermarking beats drop-nothing buffering on latency")
  }

  test("truthTops computes the per-window champions") {
    val tops = StreamAnalytics.truthTops(paperEvents, TenMin).collect()
      .map(r => (Times.fmt(r.getLong(0)), r.getStruct(1).getString(2))).toMap
    assert(tops == Map("8:00" -> "D", "8:10" -> "F"))
  }

  test("in-order data: every discipline is fully correct") {
    val ev = NexGen.bids(spark, 0.002, meanSkewMs = 0).select("bidtime", "price", "item", "ptime")
    assert(StreamAnalytics.arrivalOrderCorrectness(ev, TenMin) == 1.0)
    assert(StreamAnalytics.procTimeCorrectness(ev, TenMin) == 1.0)
  }

  test("disorder degrades arrival-order and processing-time correctness") {
    val ev = NexGen.bids(spark, 0.002, meanSkewMs = 5 * Times.MinuteMs)
      .select("bidtime", "price", "item", "ptime")
    val arr  = StreamAnalytics.arrivalOrderCorrectness(ev, TenMin)
    val proc = StreamAnalytics.procTimeCorrectness(ev, TenMin)
    assert(arr < 1.0, s"arrival-order should miss some windows, got $arr")
    assert(proc < 1.0, s"proc-time should miss some windows, got $proc")
  }
}
