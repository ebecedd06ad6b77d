package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.Oracle
import repro.core.{EmitClause, StreamSqlSession, WindowTvfRewriter}
import repro.engine.{EngineMode, EngineResult, MicroBatchEngine}
import repro.nexmark.NexGen
import repro.paperexample.PaperDataset
import repro.tvr.{Diff, Times, Tvr, WatermarkTimeline}

/** A workload whose inputs are built and registered; its query can be run
  * repeatedly against them.
  */
trait Prepared {
  type Out

  /** Processing-time ticks one query evaluates: evaluator ticks from
    * `Tvr.tickPtimes`, or engine micro-batches.
    */
  def ticks: Long

  /** Input changelog rows one query consumes. */
  def events: Long

  /** The timed call: from the program's entry point until the complete
    * result is on the driver.
    */
  def query(): Out

  /** Throws [[Check.Failed]] unless `out` is the right answer. */
  def verify(out: Out): Unit

  /** Per-layer numbers probed outside the timed query (traced run only). */
  def probes(out: Out): Map[String, Double]
}

/** One benchmark workload. `prepare` builds the inputs from the seed
  * inside `setup`'s span, with one child span per layer it calls:
  * `bids` and `watermark` (nexmark) and `register` (core.frontend).
  */
sealed trait Workload {
  def name: String
  def prepare(spark: SparkSession, seed: Long, tiny: Boolean, spans: Spans, setup: Int): Prepared
}

object Workload {
  lazy val all: Seq[Workload] = Seq(Q7Stream, HopWideExt7, EngineMicrobatch)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n'; expected one of ${all.map(_.name).mkString(", ")}"))

  val TenMin: Long = 10 * Times.MinuteMs

  /** Scale factor that makes `NexGen.bids` generate exactly `n` bids. */
  def sfFor(n: Long): Double = (n + 0.5) / NexGen.BidsPerSf

  /** Generated bids, projected to the columns the queries read, and
    * materialized so that generation is paid in set-up.
    */
  def bids(spark: SparkSession, n: Long, seed: Long): DataFrame = {
    val df = NexGen.bids(spark, sfFor(n), seed).select("bidtime", "price", "item", "ptime").persist()
    require(df.count() == n, s"expected $n generated bids")
    df
  }

  /** Bids as the DuckDB table of [[Oracle]]: event and arrival times in ms. */
  def duckBids(bids: DataFrame): DataFrame =
    bids.select(unix_millis(col("bidtime")).as("bidms"), col("price"), col("item"),
      unix_millis(col("ptime")).as("ptms"))

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

/** The two workloads that run one SQL text through `StreamSqlSession`
  * with `EMIT STREAM`, and share its checks and probes.
  */
abstract class SqlPrepared(
    spark: SparkSession,
    bidsDf: DataFrame,
    tvr: Tvr,
    val session: StreamSqlSession,
    val sqlText: String,
    maxTicks: Int,
) extends Prepared {
  import Workload.timed

  type Out = Seq[Row]

  /** The ticks the query evaluates: the stream's first `maxTicks`. */
  lazy val tickPtimes: Seq[Long] = tvr.tickPtimes.take(maxTicks)
  private lazy val tickSet       = tickPtimes.toSet

  /** The processing time the query observes the stream at. */
  lazy val now: Long =
    if (tickPtimes.size < tvr.tickPtimes.size) tickPtimes.last else Long.MaxValue / 2

  /** Input rows that have arrived by `now`. */
  lazy val arrived: DataFrame = bidsDf.where(unix_millis(col("ptime")) <= now)

  def ticks: Long  = tickPtimes.size.toLong
  lazy val events: Long = arrived.count()

  def query(): Seq[Row] = session.sql(sqlText, now).collect().toSeq

  def verify(out: Seq[Row]): Unit = verifyChanges(Check.changes(out))

  /** The check proper, on a changelog (the checker self-test corrupts one). */
  def verifyChanges(chs: Seq[Change]): Unit

  def wm: WatermarkTimeline = tvr.eventTime.get.watermark

  def probes(out: Seq[Row]): Map[String, Double] = {
    val chs = Check.changes(out)

    // core.frontend: the front end alone on the workload's SQL.
    val compileS = Stats.median((1 to 3).map { _ =>
      timed {
        val (noEmit, _) = EmitClause.split(sqlText)
        WindowTvfRewriter.rewrite(noEmit)
        session.alignmentOf(sqlText)
      }._2
    })

    // tvr.snapshot: snapshot plus temp-view registration, at a fixed
    // sample of up to eight ticks spread over the run.
    val sample = (0 until 8).map(i => tickPtimes((i * (tickPtimes.size - 1)) / 7)).distinct
    val snapMs = sample.map { p =>
      timed {
        tvr.snapshotAt(p).createOrReplaceTempView("perfbench_probe")
        spark.table("perfbench_probe").collect()
      }._2 * 1000
    }

    // core.emit: Diff.toBag + Diff.bagDiff replayed over the result bags
    // after each emitting ptime, obtained by folding the changelog.
    val bags = {
      val bag = scala.collection.mutable.Map.empty[Vector[Any], Int].withDefaultValue(0)
      chs.groupBy(_.ptimeMs).toSeq.sortBy(_._1).map { case (_, cs) =>
        cs.foreach(c => bag(c.data) += (if (c.undo) -1 else 1))
        bag.toSeq.flatMap { case (r, n) => Seq.fill(n)(Row.fromSeq(r)) }
      }
    }
    val bagdiffS = timed {
      bags.foldLeft(Map.empty[Seq[Any], Int]) { (before, rows) =>
        val after = Diff.toBag(rows)
        Diff.bagDiff(before, after)
        after
      }
    }._2

    // One WatermarkTimeline.at, averaged over 200k calls across the ticks.
    val calls = 200000
    val atS = timed {
      var i = 0; var acc = 0L
      while (i < calls) { acc += wm.at(tickPtimes(i % tickPtimes.size)); i += 1 }
      acc
    }._2

    Map(
      "core.compile_s"              -> compileS,
      "tvr.snapshot_ms_per_tick"    -> snapMs.sum / snapMs.size,
      "tvr.bagdiff_s"               -> bagdiffS,
      "tvr.watermark_at_ns"         -> atS * 1e9 / calls,
      "core.productive_tick_ratio"  -> chs.map(_.ptimeMs).distinct.count(tickSet).toDouble / ticks,
      "core.changelog_rows"         -> chs.size.toDouble,
      "core.undo_rows"              -> chs.count(_.undo).toDouble,
    )
  }

}

/** Listing 2's Q7 under `EMIT STREAM` over a NEXMark-lite bid stream:
  * 1 bid/s, 2-minute mean exponential arrival skew, perfect watermark
  * ticking every minute. The query observes the stream at its 14th tick,
  * so every seed evaluates the same number of ticks; the whole stream's
  * tick count would vary with the tail of the arrival skew.
  */
object Q7Stream extends Workload {
  val name = "q7-stream"
  val Bids = 20L
  val Ticks = 14
  val TinyBids = 6L
  val TinyTicks = 5

  def prepare(spark: SparkSession, seed: Long, tiny: Boolean, spans: Spans, setup: Int): Prepared = {
    val (bids, _) = spans.span("bids", setup)(_ => Workload.bids(spark, if (tiny) TinyBids else Bids, seed))
    val (watermark, _) = spans.span("watermark", setup)(_ => NexGen.perfectWatermark(bids, Times.MinuteMs))
    val tvr            = NexGen.bidTvr(bids, watermark)
    val (sess, _) = spans.span("register", setup) { _ =>
      val s = new StreamSqlSession(spark)
      s.registerStream("NexBid", tvr)
      s
    }
    new SqlPrepared(spark, bids, tvr, sess, PaperDataset.q7SqlFor("NexBid") + " EMIT STREAM",
        if (tiny) TinyTicks else Ticks) {
      // The table rendering of the same SQL, checked against DuckDB once.
      lazy val table: Map[String, Int] = {
        val rows = session.sql(PaperDataset.q7SqlFor("NexBid"), now).collect().toSeq
        val ms = rows.map(r => Seq[Any](r.getTimestamp(0).getTime, r.getTimestamp(1).getTime,
          r.getTimestamp(2).getTime, r.getLong(3), r.getString(4)))
        try Oracle.assertEquivalent(
          Check.df(spark, Q7Stream.schema, ms), Q7Stream.duckSql, "bid" -> Workload.duckBids(arrived))
        catch { case e: IllegalArgumentException => Check.fail(s"DuckDB oracle: ${e.getMessage}") }
        Check.bag(ms)
      }

      def verifyChanges(chs: Seq[Change]): Unit = {
        Check.wellFormed(chs, c => (c.data(0), c.data(1)))
        Check.sameBag("fold of the changelog vs the table rendering", Check.fold(chs), table)
      }
    }
  }

  private val schema = StructType(Seq("wstart", "wend", "bidtime", "price").map(StructField(_, LongType)) :+
    StructField("item", StringType))

  /** B5's DuckDB text of Q7 (top bids per 10-minute tumbling window). */
  private val duckSql =
    s"""WITH w AS (
       |  SELECT CAST(bidms AS BIGINT) AS bms, CAST(price AS BIGINT) AS price, item,
       |         CAST(floor(CAST(bidms AS BIGINT) / ${Workload.TenMin}.0) AS BIGINT) * ${Workload.TenMin} AS wstart
       |  FROM bid
       |), m AS (SELECT wstart, MAX(price) AS maxprice FROM w GROUP BY wstart)
       |SELECT w.wstart AS wstart, w.wstart + ${Workload.TenMin} AS wend,
       |       w.bms AS bidtime, w.price AS price, w.item AS item
       |FROM w JOIN m ON w.wstart = m.wstart AND w.price = m.maxprice""".stripMargin
}

/** Listing 7's Hop passthrough (10-minute windows, 5-minute hop) under
  * Extension 7. Bids arrive in 30-minute batches (ptime rounded up to the
  * batch boundary) under a 5-minute slack watermark ticking at the same
  * cadence: few ticks, wide snapshots.
  */
object HopWideExt7 extends Workload {
  val name = "hop-wide-ext7"
  val Bids = 10000L
  val TinyBids = 600L
  val BatchMs: Long = 30 * Times.MinuteMs
  val SlackMs: Long = 5 * Times.MinuteMs
  val HopMs: Long   = 5 * Times.MinuteMs

  def prepare(spark: SparkSession, seed: Long, tiny: Boolean, spans: Spans, setup: Int): Prepared = {
    val (bids, _) = spans.span("bids", setup) { _ =>
      val raw = NexGen.bids(spark, Workload.sfFor(if (tiny) TinyBids else Bids), seed)
      val batched = raw.select(col("bidtime"), col("price"), col("item"),
        timestamp_millis(floor((unix_millis(col("ptime")) + (BatchMs - 1)) / BatchMs) * BatchMs).as("ptime"))
        .persist()
      batched.count()
      batched
    }
    val (watermark, _) = spans.span("watermark", setup)(_ => NexGen.slackWatermark(bids, BatchMs, SlackMs))
    val tvr            = NexGen.bidTvr(bids, watermark)
    val (sess, _) = spans.span("register", setup) { _ =>
      val s = new StreamSqlSession(spark)
      s.registerStream("Bid", tvr)
      s
    }
    val sql = PaperDataset.hopSql + " EMIT STREAM AFTER DELAY INTERVAL '2' MINUTES AND AFTER WATERMARK"

    new SqlPrepared(spark, bids, tvr, sess, sql, Int.MaxValue) {
      /** The tick at which the watermark completes the window ending at
        * `wend`, if it ever does.
        */
      def done(wend: Long): Option[Long] = wm.firstPtimeAtOrAbove(wend)

      /** The expected table rendering, from DuckDB. */
      lazy val expected: Map[String, Int] = {
        val ms   = bids.select(unix_millis(col("bidtime"))).collect().map(_.getLong(0))
        val ends = (ms.min / HopMs) * HopMs + HopMs to (ms.max / HopMs) * HopMs + 2 * HopMs by HopMs
        Duck.bag(duckSql, Duck.table("bid", Workload.duckBids(bids)),
          Duck.Table("done", Seq("wend", "donems"), ends.flatMap(e => done(e).map(Seq(e, _)))))
      }

      def verifyChanges(chs: Seq[Change]): Unit = {
        Check.wellFormed(chs, c => (c.data(0), c.data(1)))
        chs.foreach { c =>
          val wend = c.data(1).asInstanceOf[Long]
          done(wend).filter(c.ptimeMs > _).foreach { d =>
            Check.fail(s"window ending $wend changed at ${c.ptimeMs}, after its on-time row at $d")
          }
        }
        Check.sameBag("fold of the changelog vs DuckDB", Check.fold(chs), expected)
      }
    }
  }

  /** The Hop passthrough over the rows that arrived no later than their
    * window's completion tick (all rows of windows that never complete).
    */
  private val duckSql =
    s"""WITH b AS (
       |  SELECT CAST(bidms AS BIGINT) AS bms, CAST(price AS BIGINT) AS price, item,
       |         CAST(ptms AS BIGINT) AS pms FROM bid
       |), w AS (
       |  SELECT b.*, (CAST(floor(bms / $HopMs.0) AS BIGINT) - k) * $HopMs AS wstart
       |  FROM b, (VALUES (0), (1)) AS s(k)
       |)
       |SELECT w.wstart AS wstart, w.wstart + ${Workload.TenMin} AS wend,
       |       w.bms AS bidtime, w.price AS price, w.item AS item
       |FROM w LEFT JOIN done d ON CAST(d.wend AS BIGINT) = w.wstart + ${Workload.TenMin}
       |WHERE w.bms < w.wstart + ${Workload.TenMin}
       |  AND (d.donems IS NULL OR w.pms <= CAST(d.donems AS BIGINT))""".stripMargin
}

/** B2's computation: micro-batch Q7 (top bid per 10-minute tumbling
  * window) over NEXMark-lite bids at SF 0.1 in 10 arrival-ordered batches,
  * first with watermark GC and late drops, then continuous.
  */
object EngineMicrobatch extends Workload {
  val name = "engine-microbatch"
  val Sf = 0.1
  val TinySf = 0.002
  val Batches = 10

  final case class Out(gc: EngineResult, gcFinal: Seq[Row], noGc: EngineResult, noGcFinal: Seq[Row])

  def prepare(spark: SparkSession, seed: Long, tiny: Boolean, spans: Spans, setup: Int): Prepared = {
    val n = (NexGen.BidsPerSf * (if (tiny) TinySf else Sf)).toLong
    val (bids, _) = spans.span("bids", setup)(_ => Workload.bids(spark, n, seed))
    val engine = new MicroBatchEngine(spark)

    new Prepared {
      type Out = EngineMicrobatch.Out
      def ticks: Long  = 2L * Batches
      def events: Long = 2L * n

      /** Both runs, each with its final output on the driver. AfterWatermark
        * rebuilds its output from the whole input; Continuous's is the state
        * merged batch by batch.
        */
      def query(): Out = {
        val gc   = engine.run(bids, Workload.TenMin, Batches, EngineMode.AfterWatermark)
        val noGc = engine.run(bids, Workload.TenMin, Batches, EngineMode.Continuous)
        Out(gc, gc.finalOutput.collect().toSeq, noGc, noGc.finalOutput.collect().toSeq)
      }

      lazy val windows: Long = expectedTops.size.toLong

      /** DuckDB's top price per window. */
      lazy val expectedTops: Map[String, Int] = Duck.bag(
        s"""SELECT CAST(floor(CAST(bidms AS BIGINT) / ${Workload.TenMin}.0) AS BIGINT) * ${Workload.TenMin} AS wstart,
           |       MAX(CAST(price AS BIGINT)) AS price
           |FROM bid GROUP BY 1""".stripMargin,
        Duck.table("bid", Workload.duckBids(bids)))

      private def tops(rows: Seq[Row]): Map[String, Int] =
        Check.bag(rows.map(r => Seq[Any](r.getTimestamp(0).getTime, r.getLong(3))))

      def verify(o: Out): Unit = {
        Check.sameBag("after-watermark final output vs DuckDB", tops(o.gcFinal), expectedTops)
        // Nothing is dropped, so the merged state holds every window's top.
        Check.sameBag("continuous merged state vs DuckDB", tops(o.noGcFinal), expectedTops)
        if (o.gc.totalEmitted != windows)
          Check.fail(s"after-watermark emitted ${o.gc.totalEmitted} rows for $windows windows")
        // The engine's watermark is perfect, so nothing arrives late.
        if (o.gc.totalDropped != 0) Check.fail(s"${o.gc.totalDropped} rows dropped under a perfect watermark")
        if (o.noGc.maxRetainedRows != n)
          Check.fail(s"without GC ${o.noGc.maxRetainedRows} rows retained of $n arrived")
      }

      def probes(o: Out): Map[String, Double] = Map(
        "engine.max_state_windows" -> o.gc.maxStateWindows.toDouble,
        "engine.max_retained_rows" -> o.gc.maxRetainedRows.toDouble,
        "engine.dropped_rows"      -> o.gc.totalDropped.toDouble,
        "engine.emitted_rows"      -> (o.gc.totalEmitted + o.noGc.totalEmitted).toDouble,
      )
    }
  }
}
