package repro.core

import org.apache.spark.JobTally
import org.apache.spark.sql.{AnalysisException, DataFrame}
import org.apache.spark.sql.catalyst.parser.ParseException
import org.apache.spark.sql.types.{LongType, StructType}

import repro.SparkSpec
import repro.engine.{EngineMode, MicroBatchEngine}
import repro.paperexample.PaperDataset
import repro.tvr.{Times, Tvr, WatermarkTimeline}

class StreamSqlSessionSpec extends SparkSpec {
  import spark.implicits._

  private def fmtCell(v: Any): String = v match {
    case t: java.sql.Timestamp => Times.fmt(Times.ms(t))
    case other                 => String.valueOf(other)
  }
  private def rows(df: DataFrame): Seq[Seq[String]] =
    df.collect().toSeq.map(_.toSeq.map(fmtCell))

  private def newSession: StreamSqlSession = {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s
  }

  // ------------------------------------------------------ stateless queries

  test("a projection (NEXMark Q1-style currency conversion) streams append-only") {
    val df = newSession.sql(
      "SELECT item, price * 2 AS dprice FROM Bid EMIT STREAM", Times.hm("8:21"))
    val out = rows(df)
    assert(out.size == 6)
    assert(out.forall(_(2) == "false"), "no retractions for a stateless projection")
    assert(out.forall(_(4) == "0"), "append-only rows never revise")
    assert(out.map(_(0)).toSet == Set("A", "B", "C", "D", "E", "F"))
  }

  test("a filter (NEXMark Q2-style) streams only matching rows, at their arrival ptimes") {
    val df = newSession.sql(
      "SELECT item, price FROM Bid WHERE price >= 4 EMIT STREAM", Times.hm("8:21"))
    val out = rows(df)
    assert(out.map(_(0)).sorted == Seq("C", "D", "F"))
    assert(out.map(_(3)).sorted == Seq("8:13", "8:15", "8:18")) // arrival ptimes
  }

  test("a stream joined with a static table is still a TVR") {
    val s = newSession
    s.registerTable("ItemInfo", Seq(("A", "art"), ("D", "drums"), ("F", "fan"))
      .toDF("item", "descr"))
    val df = s.sql(
      "SELECT b.item, i.descr, b.price FROM Bid b JOIN ItemInfo i ON b.item = i.item " +
        "EMIT STREAM", Times.hm("8:21"))
    val out = rows(df)
    assert(out.map(r => (r(0), r(1))).toSet == Set(("A", "art"), ("D", "drums"), ("F", "fan")))
  }

  test("a snapshot query at `now` is the classic table (no EMIT)") {
    val df = newSession.sql("SELECT COUNT(*) AS n FROM Bid", Times.hm("8:14"))
    assert(rows(df) == Seq(Seq("3"))) // A, B, C arrived by 8:14
  }

  test("a global COUNT(*) streams its row at every tick, before any input too") {
    val df = newSession.sql("SELECT COUNT(*) AS n FROM Bid EMIT STREAM", Times.hm("8:21"))
    // The 8:07 watermark tick precedes the first bid: n = 0 is a row.
    assert(rows(df) == Seq(
      Seq("0", "false", "8:07", "0"),
      Seq("1", "false", "8:08", "0"), Seq("0", "true", "8:08", "1"),
      Seq("2", "false", "8:12", "0"), Seq("1", "true", "8:12", "1"),
      Seq("3", "false", "8:13", "0"), Seq("2", "true", "8:13", "1"),
      Seq("4", "false", "8:15", "0"), Seq("3", "true", "8:15", "1"),
      Seq("5", "false", "8:17", "0"), Seq("4", "true", "8:17", "1"),
      Seq("6", "false", "8:18", "0"), Seq("5", "true", "8:18", "1"),
    ))
  }

  // ------------------------------------------------------ Extension 7

  test("Extension 7: EMIT STREAM AFTER DELAY 2 min AND AFTER WATERMARK") {
    val df = newSession.sql(
      PaperDataset.q7Sql + " EMIT STREAM AFTER DELAY INTERVAL '2' MINUTE AND AFTER WATERMARK",
      Times.hm("8:21"))
    assert(rows(df) == Seq(
      // early (periodic) panes
      Seq("8:00", "8:10", "8:07", "2", "A", "false", "8:10", "0"),
      Seq("8:10", "8:20", "8:11", "3", "B", "false", "8:14", "0"),
      Seq("8:00", "8:10", "8:07", "2", "A", "true",  "8:15", "1"),
      Seq("8:00", "8:10", "8:09", "5", "D", "false", "8:15", "2"),
      // window 2's top changes to F at 8:18; its timer (8:20) fires
      Seq("8:10", "8:20", "8:11", "3", "B", "true",  "8:20", "1"),
      Seq("8:10", "8:20", "8:17", "6", "F", "false", "8:20", "2"),
      // at completion the materialized state already equals the final
      // answer for both windows, so no extra on-time rows are due
    ))
  }

  test("completed groups drop late-arriving input (Extension 2 dropping)") {
    // Re-use the paper's bids but append a late bid for window 1 arriving
    // after the watermark passed 8:10 (at 8:17, bidtime 8:06, price 99).
    val arrivals = PaperDataset.arrivals :+ (("8:19", "8:06", 99, "LATE"))
    val tvr = Tvr.ofRows(
      spark, PaperDataset.bidSchema,
      arrivals.map { case (p, bt, price, item) =>
        (Times.hm(p), false, Seq[Any](Times.ts(Times.hm(bt)), price, item))
      }).withWatermark("bidtime", PaperDataset.watermark)
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", tvr)
    val afterWm = s.sql(PaperDataset.q7Sql + " EMIT STREAM AFTER WATERMARK", Times.hm("8:21"))
    // window 1 was finalized at 8:16 with D; the 8:19 late bid must not
    // produce any revision.
    assert(rows(afterWm) == Seq(
      Seq("8:00", "8:10", "8:09", "5", "D", "false", "8:16", "0"),
      Seq("8:10", "8:20", "8:17", "6", "F", "false", "8:21", "0"),
    ))
    // ...whereas the default (instantaneous) table view does see it:
    val table = s.sql(PaperDataset.q7Sql, Times.hm("8:21"))
    assert(rows(table).exists(_(4) == "LATE"))
  }

  // ------------------------------------------------------ plan shape

  test("a small lifted query runs as one Spark task and writes no shuffle file") {
    def run(s: StreamSqlSession, sql: String) =
      JobTally.of(spark.sparkContext)(rows(s.sql(sql + " EMIT STREAM", Times.hm("8:21"))))
    val one = newSession
    // The same query under a one-byte bound for one partition.
    val exchanging = {
      val fresh = spark.newSession()
      fresh.conf.set("spark.sql.maxSinglePartitionBytes", "1b")
      val s = new StreamSqlSession(fresh)
      s.registerStream("Bid", PaperDataset.bidTvr(fresh))
      s
    }
    val (small, tally) = run(one, PaperDataset.q7Sql)
    assert(tally == JobTally(jobs = 1, tasks = 1, shuffleWriteBytes = 0))
    // Over a larger TVR the query keeps its exchanges, and its changelog.
    val (large, exchanged) = run(exchanging, PaperDataset.q7Sql)
    assert(exchanged.jobs > 1)
    assert(large == small)
    // A query that exchanges no rows keeps its input's partitions.
    assert(run(one, PaperDataset.hopSql)._2 == run(exchanging, PaperDataset.hopSql)._2)
  }

  test("registering a TVR runs one Spark job and writes no shuffle file") {
    val s     = new StreamSqlSession(spark)
    val bids  = PaperDataset.bidTvr(spark)
    val items = Seq(("A", "art"), ("D", "drums"), ("F", "fan")).toDF("item", "descr")
    def cost(register: => Unit) = JobTally.of(spark.sparkContext)(register)._2
    for (c <- Seq(cost(s.registerStream("Bid", bids)), cost(s.registerTable("ItemInfo", items)))) {
      assert(c.jobs == 1)
      assert(c.shuffleWriteBytes == 0)
    }
  }

  test("only a view whose rows are exchanged is read in one partition") {
    val s = newSession
    def run(sql: String) =
      JobTally.of(spark.sparkContext)(rows(s.sql(sql + " EMIT STREAM", Times.hm("8:21"))))._2
    val hop   = "SELECT wstart, wend, price FROM (" + PaperDataset.hopSql + ")"
    val group = PaperDataset.tumbleGroupSql
    val (passthrough, aggregate, both) = (run(hop), run(group), run(s"$hop UNION ALL $group"))
    assert(aggregate == JobTally(jobs = 1, tasks = 1, shuffleWriteBytes = 0))
    assert(passthrough.jobs == 1 && passthrough.tasks > 1)
    // The UNION ALL's Hop branch keeps its partitions; its aggregate
    // branch reads its own view of Bid in one.
    assert(both == JobTally(jobs = 1, tasks = passthrough.tasks + 1, shuffleWriteBytes = 0))
  }

  test("a changelog is netted, in one partition, only if it retracts") {
    val inserts = PaperDataset.arrivals.map { case (p, bt, price, item) =>
      (Times.hm(p), false, Seq[Any](Times.ts(Times.hm(bt)), price, item))
    }
    val retractE = (Times.hm("8:19"), true, inserts.find(_._3(2) == "E").get._3)
    def run(tvr: Tvr) = {
      val s = new StreamSqlSession(spark)
      s.registerStream("Bid", tvr)
      JobTally.of(spark.sparkContext)(rows(s.sql("SELECT item, price FROM Bid EMIT STREAM", Times.hm("8:21"))))
    }
    // A passthrough exchanges no rows, but netting the retraction does.
    val (retracted, netted) = run(Tvr.ofRows(spark, PaperDataset.bidSchema, inserts :+ retractE))
    assert(netted == JobTally(jobs = 1, tasks = 1, shuffleWriteBytes = 0))
    assert(retracted.contains(Seq("E", "1", "true", "8:19", "1")))
    // Without the undo row nothing is netted, however the TVR was built.
    val appendOnly = Tvr.ofRows(spark, PaperDataset.bidSchema, inserts)
    for (tvr <- Seq(appendOnly, Tvr(appendOnly.changelog))) {
      val (_, kept) = run(tvr)
      assert(kept.jobs == 1 && kept.tasks > 1 && kept.shuffleWriteBytes == 0)
    }
  }

  // ------------------------------------------------------ bounded replay

  test("a recorded stream replayed as a bounded TVR gives the same final answer") {
    val s = new StreamSqlSession(spark)
    s.registerBoundedTvr("Bid", PaperDataset.bidTvr(spark))
    val replay = rows(s.sql(PaperDataset.q7Sql, Times.hm("8:21"))).sortBy(_.mkString("|"))
    val live   = rows(newSession.sql(PaperDataset.q7Sql, Times.hm("8:21"))).sortBy(_.mkString("|"))
    assert(replay == live)
  }

  // ------------------------------------------------------ error handling

  test("EMIT AFTER WATERMARK without any aligned output column is rejected") {
    val e = intercept[StreamSqlAnalysisException] {
      newSession.sql("SELECT item, price FROM Bid EMIT AFTER WATERMARK", Times.hm("8:21"))
    }
    assert(e.getMessage.contains("watermark-aligned"))
  }

  test("a TVR without event time cannot gate on a watermark") {
    val s = new StreamSqlSession(spark)
    s.registerStream("Plain",
      Tvr.ofRows(spark, PaperDataset.bidSchema,
        PaperDataset.arrivals.map { case (p, bt, price, item) =>
          (Times.hm(p), false, Seq[Any](Times.ts(Times.hm(bt)), price, item))
        })) // no watermark attached
    val e = intercept[StreamSqlAnalysisException] {
      s.sql("SELECT bidtime, price FROM Plain EMIT AFTER WATERMARK", Times.hm("8:21"))
    }
    assert(e.getMessage.contains("watermark-aligned"))
  }

  test("an event time column that is not a TIMESTAMP is rejected at registration") {
    // The paper's bids with bidtime as epoch milliseconds.
    val msSchema = StructType(PaperDataset.bidSchema.fields.map { f =>
      if (f.name == "bidtime") f.copy(dataType = LongType) else f
    })
    val tvr = Tvr.ofRows(spark, msSchema,
      PaperDataset.arrivals.map { case (p, bt, price, item) =>
        (Times.hm(p), false, Seq[Any](Times.hm(bt), price, item))
      }).withWatermark("bidtime", PaperDataset.watermark)
    val e = intercept[StreamSqlAnalysisException] {
      new StreamSqlSession(spark).registerStream("Bid", tvr)
    }
    assert(e.getMessage.contains("not TIMESTAMP"))
  }

  /** `sql`'s failure in `sql()`, which `alignmentOf` fails with too. */
  private def analysisError(sql: String): StreamSqlAnalysisException = {
    val s = newSession
    intercept[StreamSqlAnalysisException](s.alignmentOf(sql))
    intercept[StreamSqlAnalysisException](s.sql(sql, Times.hm("8:21")))
  }

  test("an Extension 2 violation fails in alignmentOf as in sql()") {
    val e = analysisError("SELECT item, COUNT(*) c FROM Bid GROUP BY item")
    assert(e.getMessage.contains("Extension 2"), e.getMessage)
  }

  test("EMIT AFTER WATERMARK without a gate fails in alignmentOf as in sql()") {
    val e = analysisError("SELECT item FROM Bid EMIT AFTER WATERMARK")
    assert(e.getMessage.contains("watermark-aligned"), e.getMessage)
  }

  test("a syntax error is a StreamSqlAnalysisException caused by Spark's ParseException") {
    assert(analysisError("SELECT item FROM Bid WHERE price >").getCause.isInstanceOf[ParseException])
  }

  test("an unknown column is a StreamSqlAnalysisException caused by Spark's AnalysisException") {
    val e = analysisError("SELECT nope FROM Bid")
    assert(e.getCause.isInstanceOf[AnalysisException])
    assert(e.getMessage.contains("nope"), e.getMessage)
  }

  test("a window's timecol that is not a TIMESTAMP is a StreamSqlAnalysisException") {
    val e = analysisError(
      "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(price), dur => INTERVAL '10' MINUTE)")
    assert(e.getCause.isInstanceOf[AnalysisException])
    assert(e.getMessage.contains("TIMESTAMP"), e.getMessage)
  }

  test("a raw string or a nested comment does not hide or fake the EMIT clause") {
    val s = newSession
    val out = rows(s.sql("SELECT r'C:\\' AS p, item FROM Bid EMIT STREAM", Times.hm("8:21")))
    assert(out.map(r => (r(0), r(1), r(2))).sorted == Seq("A", "B", "C", "D", "E", "F").map(("C:\\", _, "false")))
    assert(rows(s.sql("SELECT item FROM Bid /* a /* b */ EMIT STREAM */", Times.hm("8:21"))).size == 6)
  }

  test("an operator that cannot be lifted over ticks fails inside sql()") {
    val groupingSets =
      """SELECT T.wstart, T.wend, T.item, MAX(T.price) AS maxprice
        |FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) T
        |GROUP BY GROUPING SETS ((T.wstart, T.wend, T.item), (T.wstart, T.wend))
        |EMIT STREAM""".stripMargin
    // Expand's grouping keys carry no alignment, so over the stream Bid
    // Extension 2, checked before the lifting, fails first.
    val bounded = new StreamSqlSession(spark)
    bounded.registerBoundedTvr("Bid", PaperDataset.bidTvr(spark))
    for ((session, sql, what) <- Seq(
        (newSession, "SELECT item FROM Bid LIMIT 1 EMIT STREAM", "Limit"),
        (newSession, "SELECT item FROM Bid WHERE price > (SELECT MIN(price) FROM Bid) EMIT STREAM", "subquery"),
        (newSession, "SELECT item FROM Bid LIMIT 1", "Limit"),
        (bounded, groupingSets, "Expand"),
        (newSession, groupingSets, "Extension 2"))) {
      val e = intercept[StreamSqlAnalysisException](session.sql(sql, Times.hm("8:21")))
      assert(e.getMessage.contains(what), e.getMessage)
    }
  }

  // ------------------------------------------------------ two event times

  test("joining two streams holds back completeness to the slower watermark") {
    // A second stream whose watermark lags far behind.
    val slowWm = WatermarkTimeline.ofHm("8:21" -> "8:04")
    val ask = Tvr.ofRows(spark, PaperDataset.bidSchema, Seq(
      (Times.hm("8:09"), false, Seq[Any](Times.ts(Times.hm("8:03")), 1, "X")),
      (Times.hm("8:11"), false, Seq[Any](Times.ts(Times.hm("8:08")), 2, "Y")),
    )).withWatermark("bidtime", slowWm)
    val s = newSession
    s.registerStream("Ask", ask)
    val sql =
      """SELECT TB.wend, TA.wend AS awend, TB.item, TA.item AS aitem
        |FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
        |            dur => INTERVAL '10' MINUTE) TB
        |JOIN Tumble(data => TABLE(Ask), timecol => DESCRIPTOR(bidtime),
        |            dur => INTERVAL '10' MINUTE) TA
        |  ON TB.wend = TA.wend
        |EMIT AFTER WATERMARK""".stripMargin
    // Bid's watermark passes 8:10 at 8:16, but Ask's never does (max
    // 8:04 < 8:10): rows gated on *both* wends stay unmaterialized.
    val df = s.sql(sql, Times.hm("8:21"))
    assert(df.count() == 0)
  }

  test("a query over Bid alone is unchanged by registering another stream") {
    val sql = PaperDataset.q7Sql + " EMIT STREAM AFTER DELAY INTERVAL '2' MINUTE AND AFTER WATERMARK"
    val alone = rows(newSession.sql(sql, Times.hm("8:21")))
    // Ask changes and advances its watermark at ptimes Bid never ticks at.
    val ask = Tvr.ofRows(spark, PaperDataset.bidSchema, Seq(
      (Times.hm("8:09"), false, Seq[Any](Times.ts(Times.hm("8:03")), 1, "X")),
      (Times.hm("8:19"), false, Seq[Any](Times.ts(Times.hm("8:11")), 2, "Y")),
    )).withWatermark("bidtime", WatermarkTimeline.ofHm("8:10" -> "8:02", "8:20" -> "8:11"))
    val s = newSession
    s.registerStream("Ask", ask)
    assert(rows(s.sql(sql, Times.hm("8:21"))) == alone)
  }

  // ------------------------------------------------------ names

  test("registering a name again, in another case, replaces its TVR") {
    val bid = PaperDataset.bidTvr(spark)
    val s   = new StreamSqlSession(spark)
    s.registerStream("bid", bid.copy(changelog = bid.changelog.where($"price" >= 4)))
    s.registerStream("Bid", bid)
    val items = s.sql("SELECT item FROM Bid", Times.hm("8:21")).collect().map(_.getString(0)).sorted.toSeq
    assert(items == Seq("A", "B", "C", "D", "E", "F"))
  }

  // ------------------------------------------------------ other SparkSessions

  test("a session built on spark.newSession() still rejects a stream GROUP BY without event time") {
    val fresh = spark.newSession()
    val s     = new StreamSqlSession(fresh)
    s.registerStream("Bid", PaperDataset.bidTvr(fresh))
    intercept[StreamSqlAnalysisException] {
      s.sql("SELECT item, MAX(price) m FROM Bid GROUP BY item", Times.hm("8:21"))
    }
  }

  test("a session writes no view or function into its SparkSession") {
    val fresh = spark.newSession()
    import fresh.implicits._
    Seq(1).toDF("x").createOrReplaceTempView("Bid")
    val s = new StreamSqlSession(fresh)
    s.registerStream("Bid", PaperDataset.bidTvr(fresh))
    assert(s.sql(PaperDataset.q7Sql + " EMIT STREAM", Times.hm("8:21")).count() > 0)
    val bids = PaperDataset.arrivals
      .map { case (p, bt, price, item) => (Times.ts(Times.hm(bt)), price.toLong, item, Times.ts(Times.hm(p))) }
      .toDF("bidtime", "price", "item", "ptime")
    new MicroBatchEngine(fresh).run(bids, 10 * Times.MinuteMs, numBatches = 6, EngineMode.Continuous)
    assert(fresh.table("Bid").columns.toSeq == Seq("x"))
    assert(!fresh.catalog.functionExists("tumble_wstart"))

    // A second session over the same SparkSession, with other Bid data:
    // each answers from its own, however the calls interleave.
    val bid = PaperDataset.bidTvr(fresh)
    val t   = new StreamSqlSession(fresh)
    t.registerStream("Bid", bid.copy(changelog = bid.changelog.where($"price" >= 4)))
    def items(session: StreamSqlSession) =
      session.sql("SELECT item FROM Bid", Times.hm("8:21")).collect().map(_.getString(0)).sorted.toSeq
    assert(items(s) == Seq("A", "B", "C", "D", "E", "F"))
    assert(items(t) == Seq("C", "D", "F"))
    assert(items(s) == Seq("A", "B", "C", "D", "E", "F"))
  }
}
