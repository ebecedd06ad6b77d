package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.experiments.Experiments
import repro.nexmark.NexGen
import repro.tvr.Times

/** The paper's table/stream equivalence claim, checked against an
  * independent engine: *"The same query can be evaluated without
  * watermarks over a table that was recorded from the bid stream,
  * yielding the same result"* (Section 4). Every result here is diffed
  * against DuckDB executing the equivalent SQL.
  */
class OracleEquivalenceSpec extends SparkSpec {

  /** Normalize a windowed result to epoch-ms longs for oracle compare. */
  private def msCols(df: DataFrame, tsCols: String*): DataFrame =
    tsCols.foldLeft(df)((d, c) => d.withColumn(c, unix_millis(col(c))))

  private def duckBidTable(bids: DataFrame): DataFrame =
    bids.select(unix_millis(col("bidtime")).as("bidms"), col("price"), col("item"))

  // ---------------------------------------------------------- B5

  /** B5 at unit scale, run once: its checks are defined in `Experiments.b5`
    * only, and each test below asserts one of them equal and non-empty.
    */
  private lazy val b5 = {
    val rows = Experiments.b5(spark, 0.001)
    assert(rows.size == 3, rows)
    rows
  }

  private def assertB5(i: Int): Unit = {
    val r = b5(i)
    assert(r.equal && r.rows > 0, r)
  }

  test("Q7 on the recorded paper dataset equals DuckDB") { assertB5(0) }

  test("Q7 over a recorded NEXMark stream equals DuckDB") { assertB5(1) }

  test("the engine's after-watermark final output equals the batch query (stream/table duality)") {
    assertB5(2)
  }

  // --------------------------------------- NEXMark bids recorded as a table

  /** 1,000 NEXMark bids, one every 15 minutes of event time (about ten
    * days), recorded as a table.
    */
  private def recordedBids(session: StreamSqlSession): DataFrame = {
    val bids = NexGen.bids(spark, 0.001, gapMs = 15 * Times.MinuteMs).select("bidtime", "price", "bidder")
    session.registerTable("Bids", bids)
    bids
  }

  test("tumbled daily bid aggregation over a recorded table equals DuckDB") {
    val session = new StreamSqlSession(spark)
    val bids    = recordedBids(session)
    val ours = session.sql(
      s"""SELECT T.wstart, COUNT(*) AS n, ROUND(SUM(T.price) / 100.0, 2) AS dollars
         |FROM Tumble(data => TABLE(Bids), timecol => DESCRIPTOR(bidtime),
         |            dur => INTERVAL '1' DAY) T
         |GROUP BY T.wstart""".stripMargin)
    Oracle.assertEquivalent(
      msCols(ours, "wstart"),
      s"""SELECT CAST(floor(CAST(bms AS BIGINT) / ${Times.DayMs}.0) AS BIGINT) * ${Times.DayMs} AS wstart,
         |       COUNT(*) AS n, ROUND(SUM(CAST(price AS BIGINT)) / 100.0, 2) AS dollars
         |FROM bids GROUP BY 1""".stripMargin,
      "bids" -> bids.select(unix_millis(col("bidtime")).as("bms"), col("price")))
  }

  test("per-bidder summary over a tumbled two-day window equals DuckDB") {
    val session = new StreamSqlSession(spark)
    val bids    = recordedBids(session)
    val TwoDays = 2 * Times.DayMs
    val ours = session.sql(
      s"""SELECT T.wend, T.bidder, COUNT(*) AS n, ROUND(SUM(T.price) / 100.0, 2) AS dollars
         |FROM Tumble(data => TABLE(Bids), timecol => DESCRIPTOR(bidtime),
         |            dur => INTERVAL '2' DAY) T
         |GROUP BY T.wend, T.bidder""".stripMargin)
    Oracle.assertEquivalent(
      msCols(ours, "wend"),
      s"""SELECT CAST(floor(CAST(bms AS BIGINT) / $TwoDays.0) AS BIGINT) * $TwoDays + $TwoDays AS wend,
         |       CAST(bidder AS BIGINT) AS bidder, COUNT(*) AS n,
         |       ROUND(SUM(CAST(price AS BIGINT)) / 100.0, 2) AS dollars
         |FROM bids GROUP BY 1, 2""".stripMargin,
      "bids" -> bids.select(unix_millis(col("bidtime")).as("bms"), col("price"), col("bidder")))
  }

  test("hopping-window counts equal DuckDB's unrolled union") {
    val bids = NexGen.bids(spark, 0.0005)
    val session = new StreamSqlSession(spark)
    session.registerStream("HBid",
      NexGen.bidTvr(bids, NexGen.perfectWatermark(bids, Times.MinuteMs)))
    val Five = 5 * Times.MinuteMs
    val ours = session.sql(
      s"""SELECT H.wstart, COUNT(*) AS n
         |FROM Hop(data => TABLE(HBid), timecol => DESCRIPTOR(bidtime),
         |         dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE) H
         |GROUP BY H.wstart""".stripMargin)
    // DuckDB: each row contributes to the two half-open hop windows.
    Oracle.assertEquivalent(
      msCols(ours, "wstart"),
      s"""WITH g AS (
         |  SELECT CAST(floor(CAST(bidms AS BIGINT) / $Five.0) AS BIGINT) * $Five AS grid, *
         |  FROM bid
         |), u AS (
         |  SELECT grid AS wstart FROM g
         |  UNION ALL
         |  SELECT grid - $Five AS wstart FROM g
         |)
         |SELECT wstart, COUNT(*) AS n FROM u GROUP BY wstart""".stripMargin,
      "bid" -> duckBidTable(bids))
  }
}
