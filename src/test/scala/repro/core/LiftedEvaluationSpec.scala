package repro.core

import org.apache.spark.sql.{DataFrame, PlanFrames}
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.nexmark.NexGen
import repro.paperexample.PaperDataset
import repro.tvr.{Diff, Times, Tvr, WatermarkTimeline}

/** Differential test of the lifted evaluator: every changelog equals the
  * one obtained by evaluating the query separately at each tick, over
  * each input's snapshot at that tick, and feeding those results to an
  * [[EmitStateMachine]]. The per-tick oracle is built here, in plain
  * Spark SQL, and shares no code with the lifting.
  *
  * Each query runs twice: on the shared SparkSession, where these small
  * inputs are read in one partition wherever the query exchanges rows, so
  * the lifted query has no exchange, and on one whose bound for one
  * partition is a byte, where every join and aggregate exchanges its
  * input.
  */
class LiftedEvaluationSpec extends SparkSpec {
  import spark.implicits._

  private val Now = Long.MaxValue / 2

  private val queries: Seq[(String, String)] = Seq(
    "Q7"                 -> PaperDataset.q7Sql,
    "Listing 6 Tumble"   -> PaperDataset.tumbleGroupSql,
    "Hop passthrough"    -> PaperDataset.hopSql,
    "Hop aggregate"      -> PaperDataset.hopGroupSql,
    "Q1 projection"      -> "SELECT bidtime, item, price * 2 AS dprice FROM Bid",
    "Q2 filter"          -> "SELECT bidtime, item, price FROM Bid WHERE price % 2 = 0",
    "stream JOIN table"  ->
      "SELECT b.bidtime, b.item, i.descr, b.price FROM Bid b JOIN ItemInfo i ON b.item = i.item",
    "table LEFT JOIN stream" ->
      "SELECT i.item, i.descr, b.price FROM ItemInfo i LEFT JOIN Bid b ON b.item = i.item",
    "stream JOIN stream" ->
      """SELECT TB.wstart, TB.wend, TA.wend AS awend, TB.item, TA.item AS aitem
        |FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
        |            dur => INTERVAL '10' MINUTE) TB
        |JOIN Tumble(data => TABLE(Ask), timecol => DESCRIPTOR(bidtime),
        |            dur => INTERVAL '10' MINUTE) TA
        |  ON TB.wend = TA.wend""".stripMargin,
    "global COUNT(*)"    -> "SELECT COUNT(*) AS n FROM Bid",
  )

  /** More operators the lifting handles, on the paper input only. */
  private val morePaperQueries: Seq[(String, String)] = Seq(
    "UNION ALL with a table" -> "SELECT item FROM Bid UNION ALL SELECT item FROM ItemInfo",
    "UNION of two streams"   -> "SELECT bidtime, item FROM Bid UNION SELECT bidtime, item FROM Ask",
    "FULL JOIN of streams"   ->
      "SELECT b.bidtime, a.bidtime AS abidtime, b.item, a.item AS aitem FROM Bid b FULL JOIN Ask a ON b.price = a.price",
    "table LEFT SEMI JOIN stream" -> "SELECT i.item FROM ItemInfo i LEFT SEMI JOIN Bid b ON b.item = i.item",
    "stream LEFT ANTI JOIN table" -> "SELECT b.bidtime, b.item FROM Bid b LEFT ANTI JOIN ItemInfo i ON b.item = i.item",
    "DISTINCT, ORDER BY"     -> "SELECT DISTINCT bidtime, price % 2 AS odd FROM Bid ORDER BY bidtime DESC",
    "WHERE, GROUP BY, HAVING" ->
      """SELECT T.wstart, T.wend, COUNT(*) AS n
        |FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) T
        |WHERE T.price > 1 GROUP BY T.wstart, T.wend HAVING COUNT(*) > 1""".stripMargin,
    "WITH, read twice"       ->
      """WITH T AS (SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
        |                                  dur => INTERVAL '10' MINUTES))
        |SELECT a.wstart, a.wend, a.item, b.item AS bitem FROM T a JOIN T b
        |  ON a.wend = b.wend AND a.price < b.price""".stripMargin,
    "UNION ALL with VALUES"  -> "SELECT item FROM Bid UNION ALL SELECT * FROM VALUES ('V') AS v(item)",
    "INTERSECT"              -> "SELECT bidtime, item FROM Bid INTERSECT SELECT bidtime, item FROM Bid WHERE price > 3",
    "EXCEPT of streams"      -> "SELECT bidtime, item FROM Bid EXCEPT SELECT bidtime, item FROM Ask",
  )

  private val modes = Seq(
    "EMIT STREAM",
    "EMIT STREAM AFTER WATERMARK",
    "EMIT STREAM AFTER DELAY INTERVAL '2' MINUTES AND AFTER WATERMARK",
  )

  private val exchanging = {
    val s = spark.newSession()
    s.conf.set("spark.sql.maxSinglePartitionBytes", "1b")
    s
  }

  /** Sessions over `bid` and `ask` streams and a static `ItemInfo`, one
    * on each SparkSession.
    */
  private final case class Input(name: String, bid: Tvr, ask: Tvr, now: Long) {
    val itemInfo: DataFrame =
      Seq(("A", "art"), ("D", "drums"), ("F", "fan"), ("I1", "one"), ("I3", "three"), ("Z", "zither"))
        .toDF("item", "descr")
    val sessions: Seq[(String, StreamSqlSession)] =
      Seq("default bound" -> spark, "one-byte bound" -> exchanging).map { case (plan, on) =>
        val s = new StreamSqlSession(on)
        s.registerStream("Bid", bid)
        s.registerStream("Ask", ask)
        s.registerTable("ItemInfo", itemInfo)
        plan -> s
      }
    val watermarks: Map[String, WatermarkTimeline] =
      Map("Bid" -> bid.eventTime.get.watermark, "Ask" -> ask.eventTime.get.watermark)

    /** The ticks of the TVRs `sql` reads, up to `now`. */
    def ticks(sql: String): Seq[Long] =
      Seq("Bid" -> bid.tickPtimes, "Ask" -> ask.tickPtimes, "ItemInfo" -> Seq(0L))
        .collect { case (n, ts) if raw"\b$n\b".r.findFirstIn(sql).isDefined => ts }
        .flatten.distinct.sorted.filter(_ <= now)

    /** The oracle: `sql`'s result at tick `p`, from each stream's
      * snapshot at `p` (the changes up to `p`, netted) and the table.
      */
    def resultAt(sql: String, p: Long): Seq[Seq[Any]] = {
      for ((name, tvr) <- Seq("Bid" -> bid, "Ask" -> ask)) {
        val upTo = tvr.changelog.where(unix_millis(col(Tvr.PtimeCol)) <= p)
        Diff.expand(upTo.groupBy(tvr.dataColumns.map(col): _*)
          .agg(sum(when(col(Tvr.UndoCol), -1L).otherwise(1L)).as("__cnt"))
          .where(col("__cnt") > 0)).createOrReplaceTempView(name)
      }
      itemInfo.createOrReplaceTempView("ItemInfo")
      PlanFrames.ofPlan(spark, WindowTvfRewriter.rewrite(sql)).collect().toSeq.map(_.toSeq)
    }
  }

  private def paper: Input = {
    val ask = Tvr.ofRows(spark, PaperDataset.bidSchema, Seq(
      (Times.hm("8:09"), false, Seq[Any](Times.ts(Times.hm("8:03")), 1, "X")),
      (Times.hm("8:11"), false, Seq[Any](Times.ts(Times.hm("8:08")), 2, "Y")),
      (Times.hm("8:16"), false, Seq[Any](Times.ts(Times.hm("8:14")), 3, "Z")),
    )).withWatermark("bidtime", WatermarkTimeline.ofHm("8:12" -> "8:10", "8:19" -> "8:20"))
    Input("paper", PaperDataset.bidTvr(spark), ask, Times.hm("8:21"))
  }

  /** 60 bids, one per minute of event time with a 3-min mean arrival skew,
    * under a 2-min slack watermark ticking every 2 min, which drops late
    * rows; the asks are a second such stream.
    */
  private def nexmark: Input = {
    def stream(seed: Long): Tvr = {
      val bids = NexGen.bids(spark, sf = 0.00006, seed = seed, gapMs = Times.MinuteMs,
        meanSkewMs = 3 * Times.MinuteMs).select("bidtime", "price", "item", "ptime").persist()
      NexGen.bidTvr(bids, NexGen.slackWatermark(bids, 2 * Times.MinuteMs, 2 * Times.MinuteMs))
    }
    Input("NEXMark 60 bids", stream(1), stream(2), Now)
  }

  /** The evaluator's per-group key and completeness test for `sql`:
    * gates on the aligned output columns, window bounds first, each
    * complete once every one of its sources' watermarks has passed.
    */
  private def gating(in: Input, sql: String, columns: Seq[String]) = {
    val aligned = in.sessions.head._2.alignmentOf(sql).map { case (c, al) => columns.indexOf(c) -> al }
    val gates   = if (aligned.exists(!_._2.strict)) aligned.filter(!_._2.strict) else aligned
    def keyOf(row: Seq[Any]) = if (gates.isEmpty) row else gates.map { case (i, _) => row(i) }
    def complete(key: Seq[Any], p: Long) = gates.zip(key).forall {
      case ((_, al), t: java.sql.Timestamp) =>
        al.sources.forall(in.watermarks(_).isComplete(Times.ms(t) + al.deltaMs, p, strict = al.strict))
      case _ => false
    }
    (keyOf _, complete _)
  }

  private def changes(df: DataFrame): Seq[Change] = df.collect().toSeq.map { r =>
    val n = r.length
    Change(r.toSeq.take(n - 3), r.getBoolean(n - 3), Times.ms(r.getTimestamp(n - 2)), r.getInt(n - 1))
  }

  /** Each ptime's rows as a multiset, and each group's rows in order. */
  private def views(chs: Seq[Change], keyOf: Seq[Any] => Seq[Any]) =
    (chs.groupBy(_.ptime).map { case (p, cs) => p -> cs.groupMapReduce(identity)(_ => 1)(_ + _) },
     chs.groupBy(c => keyOf(c.row)))

  for ((inputName, input, qs) <- Seq(
      ("paper", () => paper, queries ++ morePaperQueries), ("NEXMark", () => nexmark, queries))) {
    test(s"lifted changelogs equal per-tick evaluation on the $inputName input") {
      val in = input()
      for ((name, sql) <- qs) {
        // The oracle's input: the result at each tick, evaluated one tick
        // at a time.
        val snapshots         = in.ticks(sql).map(p => p -> in.resultAt(sql, p))
        val (keyOf, complete) = gating(in, sql, PlanFrames.ofPlan(spark, WindowTvfRewriter.rewrite(sql)).columns.toSeq)
        for (mode <- modes; (plan, session) <- in.sessions) {
          val emit = EmitClause.split(s"$sql $mode")._2
          if (emit.afterWatermark && session.alignmentOf(sql).isEmpty)
            intercept[StreamSqlAnalysisException](session.sql(s"$sql $mode", in.now))
          else {
            val m = new EmitStateMachine(emit, keyOf, complete)
            snapshots.foreach { case (p, rows) => m.tick(p, rows) }
            m.finish(in.now)
            val actual = changes(session.sql(s"$sql $mode", in.now))
            withClue(s"${in.name}, $name, $mode, $plan: ") {
              assert(views(actual, keyOf) == views(m.changelog, keyOf))
              assert(actual.size == m.changelog.size)
            }
          }
        }
      }
    }
  }
}
