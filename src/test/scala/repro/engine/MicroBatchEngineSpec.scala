package repro.engine

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.nexmark.NexGen
import repro.paperexample.PaperDataset
import repro.tvr.{Times, WatermarkTimeline}

class MicroBatchEngineSpec extends SparkSpec {

  private val TenMin = 10 * Times.MinuteMs
  private lazy val engine = new MicroBatchEngine(spark)

  private lazy val events: DataFrame =
    NexGen.bids(spark, 0.002, meanSkewMs = 2 * Times.MinuteMs)
      .select("bidtime", "price", "item", "ptime")
      .persist()

  private def tops(df: DataFrame): Map[Long, (Long, String)] =
    df.collect().map { r =>
      Times.ms(r.getTimestamp(0)) -> (r.getLong(3), r.getString(4))
    }.toMap

  private lazy val truth: Map[Long, (Long, String)] = {
    val t = StreamAnalytics.truthTops(events, TenMin).collect()
      .map(r => r.getLong(0) -> (r.getStruct(1).getLong(0), r.getStruct(1).getString(2)))
    t.toMap
  }

  test("continuous mode converges to the batch ground truth") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    assert(tops(res.finalOutput) == truth)
    assert(res.totalDropped == 0)
  }

  test("after-watermark mode with the perfect watermark drops nothing and matches truth") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(res.totalDropped == 0, "perfect watermark never admits late data")
    assert(tops(res.finalOutput) == truth)
  }

  test("after-watermark emits exactly one row per closed window") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    val closed = truth.size - res.perBatch.last.stateWindows
    assert(res.totalEmitted == closed)
  }

  test("continuous mode emits at least as much as after-watermark") {
    val c = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    val w = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(c.totalEmitted >= w.totalEmitted)
  }

  test("watermark GC bounds retained input, continuous retains everything") {
    val c = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    val w = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(c.maxRetainedRows == events.count())
    assert(w.maxRetainedRows < c.maxRetainedRows,
      s"GC should retain less: ${w.maxRetainedRows} vs ${c.maxRetainedRows}")
  }

  test("state never exceeds the number of windows; GC keeps it near the open set") {
    val w = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(w.maxStateWindows <= truth.size)
    assert(w.perBatch.last.stateWindows <= 2) // only the tail window(s) stay open
  }

  test("per-batch metrics are monotone where they should be") {
    val res = engine.run(events, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    val arrived = res.perBatch.map(_.arrivedRows)
    assert(arrived == arrived.sorted)
    val wms = res.perBatch.map(_.wmMs)
    assert(wms == wms.sorted)
  }

  test("micro-batching coalesces updates: engine emits no more than per-event continuous") {
    val res     = engine.run(events, TenMin, numBatches = 8, EngineMode.Continuous)
    val perEvent =
      StreamAnalytics.emissions(events, TenMin, EngineMode.Continuous.emit, WatermarkTimeline.empty)
    assert(res.totalEmitted <= perEvent)
    assert(res.totalEmitted >= truth.size) // at least one insert per window
  }

  test("more batches means finer coalescing (emissions grow with batch count)") {
    val few  = engine.run(events, TenMin, numBatches = 2, EngineMode.Continuous)
    val many = engine.run(events, TenMin, numBatches = 16, EngineMode.Continuous)
    assert(many.totalEmitted >= few.totalEmitted)
  }

  test("continuous mode on the paper's six bids, one per batch, emits Listing 9's 8 rows") {
    import spark.implicits._
    val paperEvents = PaperDataset.arrivals
      .map { case (p, bt, price, item) =>
        (Times.ts(Times.hm(bt)), price.toLong, item, Times.ts(Times.hm(p)))
      }
      .toDF("bidtime", "price", "item", "ptime")
    val res = engine.run(paperEvents, TenMin, numBatches = 6, EngineMode.Continuous)
    // 8:00 window: A inserts, C and D each undo + insert (5 rows);
    // 8:10 window: B inserts, E does not raise, F undoes + inserts (3 rows).
    assert(res.perBatch.map(_.emitted) == Seq(1L, 1L, 2L, 2L, 0L, 2L))
    assert(res.totalEmitted == 8L)
    assert(res.totalEmitted ==
      StreamAnalytics.emissions(paperEvents, TenMin, EngineMode.Continuous.emit, PaperDataset.watermark))
  }

  test("in-order input: arrival-time batching closes windows promptly") {
    val inOrder = NexGen.bids(spark, 0.002, meanSkewMs = 0)
      .select("bidtime", "price", "item", "ptime")
    val res = engine.run(inOrder, TenMin, numBatches = 8, EngineMode.AfterWatermark)
    assert(res.totalDropped == 0)
    val t = StreamAnalytics.truthTops(inOrder, TenMin).count()
    assert(res.totalEmitted >= t - 1) // all but (possibly) the final open window
  }
}
