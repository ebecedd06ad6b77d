package org.apache.spark.sql

import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Statistics}
import org.apache.spark.sql.catalyst.types.DataTypeUtils
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.internal.SQLConf

/** Spark-internal calls the program needs: DataFrames over hand-built
  * plans or internal rows, and columns over Catalyst expressions. They
  * are `private[sql]` or unstable, hence this bridge in Spark's package.
  */
object PlanFrames {
  def ofPlan(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  /** `df` as a leaf relation over its internal rows, whose plan is not
    * planned again by each query that reads it: no row is converted to a
    * `Row` and back. The leaf reports `df`'s estimated size, not Spark's
    * default for an RDD of unknown size (`Long.MaxValue`); estimating it
    * runs no job.
    */
  def leaf(df: DataFrame): DataFrame = {
    val spark = df.sparkSession.asInstanceOf[classic.SparkSession]
    val qe    = df.queryExecution
    val stats = qe.optimizedPlan.stats
    ofPlan(spark, LogicalRDD(DataTypeUtils.toAttributes(df.schema), qe.toRdd)(
      spark, Some(Statistics(stats.sizeInBytes, stats.rowCount))))
  }

  /** The largest input, in bytes, that `spark` plans in one partition
    * (`spark.sql.maxSinglePartitionBytes`).
    */
  def maxSinglePartitionBytes(spark: SparkSession): Long =
    spark.asInstanceOf[classic.SparkSession].sessionState.conf.getConf(SQLConf.MAX_SINGLE_PARTITION_BYTES)

  def column(e: Expression): Column = classic.ExpressionUtils.column(e)

  def expression(c: Column): Expression = classic.ExpressionUtils.expression(c)
}
