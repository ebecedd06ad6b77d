package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.types.StructType

/** Spark-internal calls the program needs: DataFrames over hand-built
  * plans or internal rows, and the session catalog's temp view entries.
  * They are `private[sql]` or unstable, hence this bridge in Spark's
  * package.
  */
object PlanFrames {
  def ofPlan(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  /** `df`'s rows under `schema` (its columns with new field metadata), as
    * a leaf relation over `df`'s internal rows: no row is converted to a
    * `Row` and back.
    */
  def withSchema(df: DataFrame, schema: StructType): DataFrame =
    df.sparkSession.asInstanceOf[classic.SparkSession].internalCreateDataFrame(df.queryExecution.toRdd, schema)

  /** The catalog's entry for the temporary view `name`, if any. Every
    * registration makes a new entry, so entries compare by reference.
    */
  def tempView(spark: SparkSession, name: String): Option[AnyRef] =
    spark.asInstanceOf[classic.SparkSession].sessionState.catalog.getRawTempView(name)
}
