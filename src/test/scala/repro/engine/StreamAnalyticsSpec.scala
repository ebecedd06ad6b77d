package repro.engine

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.{EmitClause, StreamSqlSession}
import repro.nexmark.NexGen
import repro.paperexample.PaperDataset
import repro.tvr.{Times, WatermarkTimeline}

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

  /** B1's count of `events` under the EMIT clause `emit` (e.g. "EMIT STREAM"). */
  private def emissions(events: DataFrame, emit: String, wm: WatermarkTimeline): Long =
    StreamAnalytics.emissions(events, TenMin, EmitClause.split(s"SELECT 1 $emit")._2, wm)

  test("continuousEmissions equals the Listing 9 changelog length") {
    assert(emissions(paperEvents, "EMIT STREAM", PaperDataset.watermark) == 8L)
  }

  test("delayEmissions(6 min) equals the Listing 14 changelog length") {
    assert(emissions(paperEvents, "EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES",
      PaperDataset.watermark) == 4L)
  }

  test("delayEmissions equals the evaluator's AFTER DELAY changelog length on Q7") {
    // B1 counts Listing 6's changelog (MAX(price) per window). 90 s and
    // 2 min timers fire between ticks (e.g. 8:09:30, 8:10).
    val delays = Seq("'90' SECONDS", "'2' MINUTES", "'6' MINUTES")
    val emits = Seq("EMIT STREAM", "EMIT STREAM AFTER WATERMARK") ++
      delays.map(d => s"EMIT STREAM AFTER DELAY INTERVAL $d") :+
      "EMIT STREAM AFTER DELAY INTERVAL '2' MINUTES AND AFTER WATERMARK"
    // 60 bids, one per minute of event time, 3-min mean skew; under a
    // perfect watermark and under a 2-min slack one, which drops late rows
    // (both ticking every 2 min).
    val nexmark = (1L to 3L).flatMap { seed =>
      val bids = NexGen.bids(spark, sf = 0.00006, seed = seed, gapMs = Times.MinuteMs,
        meanSkewMs = 3 * Times.MinuteMs).select("bidtime", "price", "item", "ptime").persist()
      Seq(s"seed $seed perfect" -> NexGen.perfectWatermark(bids, 2 * Times.MinuteMs),
          s"seed $seed slack" -> NexGen.slackWatermark(bids, 2 * Times.MinuteMs, 2 * Times.MinuteMs))
        .map { case (name, wm) => (name, bids, wm) }
    }
    (("paper", paperEvents, PaperDataset.watermark) +: nexmark).foreach { case (name, events, wm) =>
      val s = new StreamSqlSession(spark)
      s.registerStream("Bid", NexGen.bidTvr(events, wm))
      emits.foreach { emit =>
        val rows = s.sql(PaperDataset.tumbleGroupSql + " " + emit).count()
        assert(emissions(events, emit, wm) == rows, s"$name: $emit")
      }
    }
  }

  test("watermarkEmissions equals one final row per window (Listing 13)") {
    assert(emissions(paperEvents, "EMIT STREAM AFTER WATERMARK", PaperDataset.watermark) == 2L)
  }

  test("delay 0 collapses to continuous; huge delay collapses to one emission per window") {
    val wm   = PaperDataset.watermark
    val zero = emissions(paperEvents, "EMIT STREAM AFTER DELAY INTERVAL '0' MINUTES", wm)
    assert(zero == emissions(paperEvents, "EMIT STREAM", wm))
    val huge = emissions(paperEvents, "EMIT STREAM AFTER DELAY INTERVAL '1' DAY", wm)
    assert(huge == emissions(paperEvents, "EMIT STREAM AFTER WATERMARK", wm))
  }

  test("emission volumes are ordered: watermark <= delay <= continuous") {
    val ev = NexGen.bids(spark, 0.002).select("bidtime", "price", "item", "ptime")
    val wm = NexGen.perfectWatermark(ev, Times.MinuteMs)
    val c  = emissions(ev, "EMIT STREAM", wm)
    val d  = emissions(ev, "EMIT STREAM AFTER DELAY INTERVAL '5' MINUTES", wm)
    val w  = emissions(ev, "EMIT STREAM AFTER WATERMARK", wm)
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
